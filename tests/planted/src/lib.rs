//! One planted line per class of finding the model crates must not contain.
//! `tests/static_gate.rs` runs clippy here and expects exactly the lints
//! named in the trailing `~` comments, on those lines; the ones tagged
//! `payload` fire only under `crates/netsim/clippy.toml`. Lines without
//! one are the negatives. The crate attributes are the ones the seven model
//! crates carry (the gate checks it is the same text), except that `sim`
//! does not carry the float line.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

use std::collections::HashMap as Map; //~ clippy::disallowed_types

// The public surface is what other crates can name.
mod inner { pub fn leaked() {} } //~ unreachable_pub
pub fn reaches_inner() {
    inner::leaked()
}

// No panic in any non-test fn: a helper nobody calls, a method, an operator.
pub fn root(x: Option<u32>) -> u32 {
    x.unwrap() //~ clippy::unwrap_used
}
pub fn cold_helper(x: Result<u32, ()>) -> u32 {
    x.expect("never called") //~ clippy::expect_used
}
pub struct S;
impl S {
    pub fn method(&self, x: u8) -> u8 {
        match x {
            0 => 1,
            _ => unreachable!(), //~ clippy::unreachable
        }
    }
}
impl std::ops::Not for S {
    type Output = S;
    fn not(self) -> S {
        panic!("operators too") //~ clippy::panic
    }
}
pub fn later() {
    todo!() //~ clippy::todo
}
pub fn never() {
    unimplemented!() //~ clippy::unimplemented
}

// Determinism: hash order however it is spelt, wall clocks, the environment.
pub struct Tables {
    pub field: std::collections::HashSet<u32>, //~ clippy::disallowed_types
    pub renamed: Map<u32, u32>,                //~ clippy::disallowed_types
}
pub type Alias = std::collections::HashMap<u32, u32>; //~ clippy::disallowed_types
pub fn signature(m: &std::collections::HashMap<u32, u32>) -> usize { //~ clippy::disallowed_types
    m.len()
}
pub fn turbofish() -> usize {
    Map::<u32, u32>::new().len() //~ clippy::disallowed_types
}
pub fn monotonic() -> std::time::Instant {
    std::time::Instant::now() //~ clippy::disallowed_methods
}
pub fn wall() -> std::time::SystemTime {
    std::time::SystemTime::now() //~ clippy::disallowed_methods
}
pub fn environment() -> bool {
    std::env::var("PLANTED").is_ok() //~ clippy::disallowed_methods
}

// One thread: shared ownership is `Rc`, interior mutability `RefCell`.
pub type Shared = std::sync::Arc<u32>; //~ clippy::disallowed_types
pub fn locked(m: &std::sync::Mutex<u32>) -> bool { //~ clippy::disallowed_types
    m.try_lock().is_ok()
}
pub fn single(x: std::rc::Rc<std::cell::RefCell<u32>>) -> u32 {
    *x.borrow()
}

// Costs are compiled integers: no float arithmetic outside a compiler or a
// report (every model crate but sim).
pub fn per_event(us: f64) -> f64 {
    us * 1e3 //~ clippy::float_arithmetic
}

// Payload bytes come from the pool (netsim and mbuf only).
pub fn frame(n: usize) -> Vec<u8> {
    vec![0u8; n] //~payload clippy::disallowed_macros
}
pub fn reserve(n: usize) -> Vec<u8> {
    Vec::with_capacity(n) //~payload clippy::disallowed_methods
}
pub fn copy(b: &[u8]) -> Vec<u8> {
    b.to_vec() //~payload clippy::disallowed_methods
}

// Exceptions: reasoned, spelt right, and still needed.
#[allow(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
pub fn no_reason(x: Option<u32>) -> u32 {
    x.unwrap()
}
#[allow(clippy::unwrap_usedd, reason = "misspelt")] //~ unknown_lints
pub fn misspelt() {}
#[expect(clippy::unwrap_used, reason = "the unwrap is gone")] //~ unfulfilled_lint_expectations
pub fn stale(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

// Negatives: none of these may be reported.
pub fn fallback(x: Option<u32>) -> u32 {
    x.unwrap_or(7)
}
#[expect(clippy::unwrap_used, reason = "the convention for a real exception")]
pub fn excepted(x: Option<u32>) -> u32 {
    x.unwrap()
}
#[expect(clippy::float_arithmetic, reason = "a compiler: runs once, before any event")]
pub fn compiled(us: f64) -> u64 {
    (us * 1e3).round() as u64
}
pub fn compare(p: f64) -> bool {
    p > 0.0
}
// x.unwrap(); panic!(); HashMap::new(); Instant::now(); vec![0u8; 4]
pub const PROSE: &str = "x.unwrap(); panic!(); HashMap::new(); Instant::now(); vec![0u8; 4]";
#[cfg(test)]
mod tests {
    #[test]
    fn the_panic_family_is_allowed_in_tests() {
        assert_eq!(Some(vec![0u8; 4].len()).unwrap(), 4);
    }
}
