//! `mcc --help` names every algorithm, reference machine and language.
//!
//! The usage text spells these names by hand; this test keeps it in step
//! with `Algorithm`, the machine registry and `SourceLang`.

use std::process::Command;

use mcc::compact::Algorithm;
use mcc::core::SourceLang;
use mcc::machine::machines;

/// The usage text, as `mcc --help` prints it.
fn usage() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
        .arg("--help")
        .output()
        .expect("mcc runs");
    assert!(out.status.success(), "mcc --help exits 0");
    String::from_utf8(out.stderr).expect("usage is UTF-8")
}

/// The words of the option `flag`'s entry: its first line and the
/// indented continuation lines under it.
fn option_words(text: &str, flag: &str) -> Vec<String> {
    let mut lines = text.lines().skip_while(|l| !l.contains(flag));
    let first = lines.next().unwrap_or_else(|| panic!("usage lists {flag}"));
    let rest =
        lines.take_while(|l| l.trim_start().starts_with('|') || l.trim_start().starts_with('('));
    std::iter::once(first)
        .chain(rest)
        .flat_map(|l| l.split(|c: char| !c.is_ascii_alphanumeric()))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn usage_names_every_algorithm_machine_and_language() {
    let text = usage();

    let algos = option_words(&text, "--algo <name>");
    for a in Algorithm::ALL.into_iter().chain([Algorithm::Sequential]) {
        assert!(
            algos.contains(&a.name().to_string()),
            "--algo omits {}: {algos:?}",
            a.name()
        );
    }

    let named: Vec<String> = option_words(&text, "--machine <name>")
        .iter()
        .filter_map(|w| machines::by_name(w))
        .map(|m| m.name)
        .collect();
    for m in machines::all() {
        assert!(
            named.contains(&m.name),
            "--machine omits {}: {named:?}",
            m.name
        );
    }

    let langs = option_words(&text, "--lang <name>");
    for l in SourceLang::ALL {
        assert!(
            langs.contains(&l.name().to_string()),
            "--lang omits {}: {langs:?}",
            l.name()
        );
    }
}

/// `mcc` run with `args`.
fn mcc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args(args)
        .output()
        .expect("mcc runs")
}

#[test]
fn help_after_a_command_prints_the_usage() {
    for flag in ["--help", "-h"] {
        let out = mcc(&["compile", flag]);
        assert_eq!(out.status.code(), Some(0), "compile {flag}: {out:?}");
        let text = String::from_utf8(out.stderr).expect("usage is UTF-8");
        assert_eq!(text, usage(), "compile {flag} prints the usage");
    }
}

#[test]
fn an_unknown_option_is_named_and_is_a_flag_error() {
    let out = mcc(&["compile", "--bogus", "demos/gcd.yll"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let (first, rest) = text.split_once('\n').expect("more than one line");
    assert_eq!(first, "mcc: unknown option `--bogus`");
    assert_eq!(rest, usage(), "the usage follows the diagnostic");
}
