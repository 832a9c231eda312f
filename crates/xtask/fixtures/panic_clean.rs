//! Decoys only: every panic-looking pattern here is in a string, a
//! comment, a test scope, or is not actually a panicking call. The
//! panic-freedom rule must report nothing.

// A comment mentioning .unwrap() and panic!("boom").

/* Block comment: x.expect("nested /* unreachable!() */ still comment") */

// Evaluated by the compiler: a failure is a build error, not a panic.
const _: () = assert!(u8::MAX as u32 == 255, "compile-time");

pub fn decoys() -> &'static str {
    const { assert!(usize::BITS >= 32) };
    let msg = "strings may say .unwrap() or panic! freely";
    let raw = r#"raw string: x.expect("quoted") and todo!()"#;
    let bytes = b".unwrap() in bytes";
    let _ = (raw, bytes);
    // `unwrap_or` and friends are fine; so is defining an fn named expect.
    let n: u32 = Some(1).unwrap_or(2);
    let _ = n;
    debug_assert!(n > 0, "compiled out of release builds, so not a panic path there");
    msg
}

/// Doc comment advertising `.unwrap()` is fine too.
pub fn expect(x: u32) -> u32 {
    x
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
        let _ = v.expect("tests are exempt");
        if false {
            panic!("tests are exempt");
        }
    }
}
