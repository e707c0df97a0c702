//! The exact content addresses of a fixed request set. On-disk caches
//! and ring placement both depend on these values, so any change to key
//! derivation — the salt, the section order, the MDL rendering or the
//! options line — fails here first.

use mcc_cache::{key_for_wire, key_of, CacheKey};
use mcc_compact::Algorithm;
use mcc_core::{CompilerOptions, SourceLang};
use mcc_machine::machines;

const SRC: &str = "reg a = R0\nconst a, 7\nadd a, a, 1\nexit a\n";

/// (machine, language, key under default options), in `machines::all()`
/// order.
const DEFAULT_KEYS: [(&str, SourceLang, &str); 16] = [
    ("HM-1", SourceLang::Simpl, "8d21c1de5e41713a70dd42b1154d6f24"),
    ("HM-1", SourceLang::Empl, "2b99a80c176d70bc7e1bf1e66a6fd038"),
    ("HM-1", SourceLang::Sstar, "a6ab7548bbc590169a609fe62af31912"),
    ("HM-1", SourceLang::Yalll, "de1f69ce6c620c080d624b412f0a9a33"),
    ("VM-1", SourceLang::Simpl, "93a793b351667d6d1937aa0bd9d0b0d0"),
    ("VM-1", SourceLang::Empl, "d4a1efacc16a92f29328585d01907724"),
    ("VM-1", SourceLang::Sstar, "06ee0edb0f0df8fad9f877621db22422"),
    ("VM-1", SourceLang::Yalll, "ff097fd36b5d4d8c014d37a46312936d"),
    ("BX-2", SourceLang::Simpl, "cadd21a0b8c137cb1e9f675e0818c720"),
    ("BX-2", SourceLang::Empl, "e42fcdcf311022a6b1b182d88929a764"),
    ("BX-2", SourceLang::Sstar, "afb26042d4aacb4bd5402c8892b3a54a"),
    ("BX-2", SourceLang::Yalll, "8fda7dc5ff1132d5a6f88a4331beac4d"),
    ("WM-64", SourceLang::Simpl, "3d1c735b88b8269431761754c1baa756"),
    ("WM-64", SourceLang::Empl, "79d503d7708dbb610b893b3b5c535ab2"),
    ("WM-64", SourceLang::Sstar, "0ef97bdbdb068c1250cc9f0afc842ce0"),
    ("WM-64", SourceLang::Yalll, "48a38c70e486c73e3ae8102a62302b67"),
];

fn hex(k: CacheKey) -> String {
    k.to_string()
}

#[test]
fn every_machine_and_language_keeps_its_key() {
    let opts = CompilerOptions::default();
    let mut pinned = DEFAULT_KEYS.iter();
    for m in machines::all() {
        for lang in SourceLang::ALL {
            let &(name, want_lang, want) = pinned.next().expect("one pin per machine and language");
            assert_eq!((m.name.as_str(), lang), (name, want_lang), "pin order");
            assert_eq!(hex(key_of(&m, lang, &opts, SRC)), want, "{name} {lang}");
        }
    }
    assert!(pinned.next().is_none());
}

#[test]
fn optimal_options_keep_their_key() {
    let optimal = CompilerOptions {
        algorithm: Algorithm::BranchBound,
        ..CompilerOptions::default()
    };
    assert_eq!(
        hex(key_of(&machines::wm64(), SourceLang::Empl, &optimal, SRC)),
        "80eb4961274cfa32ad042a4727ca917e"
    );
}

#[test]
fn wire_names_keep_their_keys() {
    for (machine, lang, want) in [
        ("Horizon", "yll", "de1f69ce6c620c080d624b412f0a9a33"),
        ("vertica", "EMP", "d4a1efacc16a92f29328585d01907724"),
        ("bx-2", "simpl", "cadd21a0b8c137cb1e9f675e0818c720"),
        ("WM64", "s*", "0ef97bdbdb068c1250cc9f0afc842ce0"),
    ] {
        let key = key_for_wire(machine, lang, SRC).expect("names resolve");
        assert_eq!(hex(key), want, "{machine} {lang}");
    }
}
