//! Poison-free reader–writer lock over `std::sync`.
//!
//! The workspace is hermetic (no external crates; see DESIGN.md), so the
//! ergonomic `parking_lot` lock was replaced with this thin wrapper: same
//! `.read()` / `.write()` call-site surface, guards returned directly
//! rather than behind a `Result`.
//!
//! Poisoning is deliberately ignored: the simulation is single-process and
//! deterministic, and a panic while holding a lock already aborts the
//! experiment — propagating `PoisonError` through every call site would add
//! `Result` plumbing with no information. A poisoned lock here just hands
//! back the inner guard.

use std::sync::{self, LockResult};

/// Unwrap a lock acquisition, ignoring poison.
#[inline]
fn ignore_poison<G>(result: LockResult<G>) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Reader–writer lock with `parking_lot`-style ergonomics.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        ignore_poison(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard (blocks; never returns `Err`).
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        ignore_poison(self.0.read())
    }

    /// Acquire an exclusive write guard (blocks; never returns `Err`).
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        ignore_poison(self.0.write())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        ignore_poison(self.0.get_mut())
    }
}

impl<T: Default> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_read_write_round_trip() {
        let lock = RwLock::new(1u32);
        assert_eq!(*lock.read(), 1);
        *lock.write() += 41;
        assert_eq!(*lock.read(), 42);
        assert_eq!(lock.into_inner(), 42);
    }

    #[test]
    fn rwlock_survives_poisoning() {
        let lock = Arc::new(RwLock::new(7u32));
        let poisoner = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write();
            panic!("poison the lock");
        })
        .join();
        // parking_lot semantics: a panicked writer does not wedge readers.
        assert_eq!(*lock.read(), 7);
        *lock.write() = 8;
        assert_eq!(*lock.read(), 8);
    }
}
