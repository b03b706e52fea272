// Fixture crate root. Violations on purpose:
//  - marker: a designated hot module without the hot-lint block
//  - exhaustive: wildcard arm over a wire-format enum
// The #[cfg(test)] module and the string/comment decoys below must NOT
// produce findings.

pub mod fast;

pub enum FrameControl {
    Token,
    LlcAsync,
}

pub fn classify(fc: FrameControl) -> u8 {
    match fc {
        FrameControl::Token => 1,
        _ => 0,
    }
}

pub fn decoys() -> &'static str {
    // match fc { FrameControl::Token => 1, _ => 0 } in a comment is not
    // a finding, and neither is the string below.
    "match fc { FrameControl::Token => 1, _ => 0 }"
}

#[cfg(test)]
mod tests {
    use super::FrameControl;

    #[test]
    fn test_only_code_is_exempt() {
        let n = match FrameControl::LlcAsync {
            FrameControl::Token => 1,
            _ => 0,
        };
        assert_eq!(n, 0);
    }
}
