//! An S* assertion nested past the frontend's depth limit is answered
//! 400 like any other bad program. Assertion text used to be parsed
//! without the depth guard, so this one request overflowed a worker's
//! stack and aborted the whole server.
//!
//! The answer quotes a window around the offending span, not the whole
//! 40 KB line.
//!
//! Its own test binary on purpose: a regression aborts the process,
//! which would take every other test of the binary down with it.

use mcc_serve::proto::{self, Response};
use mcc_serve::{ServeConfig, Server};

#[test]
fn deeply_nested_assertion_is_a_400_and_the_server_survives() {
    let server = Server::start(ServeConfig::default());
    let src = format!(
        "program t; var x: seq [15..0] bit with R1; begin x := 3; assert({}(x = 3)); end",
        "not ".repeat(10_000)
    );
    let line = proto::compile_line("deep", "hm1", "sstar", &src);
    let resp = server.handle_line(&line, "test").to_line();
    assert_eq!(Response::field_num(&resp, "code"), Some(400), "{resp}");
    let error = Response::field_str(&resp, "error").expect("an error field");
    assert!(error.contains("bad assertion:"), "{error}");
    assert!(error.contains("nesting deeper than 64 levels"), "{error}");
    // The excerpt quotes a window of the 40 KB line, not the line.
    assert!(error.len() < 1024, "{} bytes of error", error.len());

    let ping = server.handle_line("{\"op\":\"ping\"}\n", "test").to_line();
    assert_eq!(Response::field_num(&ping, "code"), Some(200), "{ping}");
}
