//! Seeded panic-freedom violations, one per flagged pattern, in order.
//! The self-test asserts the rule finds exactly these six sites.

pub fn seeded(input: Option<u32>) -> u32 {
    let a = input.unwrap(); // seeded_unwrap
    let b = input.expect("seeded_expect");
    assert!(a >= b, "seeded_assert");
    if a + b == 0 {
        panic!("seeded_panic");
    }
    match a {
        0 => unreachable!("seeded_unreachable"),
        _ => todo!("seeded_todo"),
    }
}
