//! The project-specific lint rules. Each rule module exposes
//! `check(root) -> Vec<Violation>` plus a testable inner function that
//! the fixture self-tests drive directly.

pub mod clocks;
pub mod panics;
pub mod protocol;
