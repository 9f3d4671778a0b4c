//! Poison-recovering lock acquisition for `std::sync` locks.
//!
//! Every lock in the workspace is taken through these methods. A panic
//! while a guard is held poisons a `std` lock; every guarded structure
//! here is left valid between statements (a registry map, a bounded
//! ring, a snapshot `Arc`), so the next holder can carry on instead of
//! turning one caught handler panic into a panic on every later call.
//!
//! The method names are also what `cpi2-lint`'s nested-lock and
//! lock-order passes recognise as an acquisition: keep a guard in a
//! `let` bound to one of these calls so the analysis sees it.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// [`Mutex`] acquisition that recovers the guard from a poisoned lock.
pub trait MutexExt<T: ?Sized> {
    /// Blocks until the lock is held; never fails.
    fn locked(&self) -> MutexGuard<'_, T>;
}

impl<T: ?Sized> MutexExt<T> for Mutex<T> {
    fn locked(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`RwLock`] acquisition that recovers the guard from a poisoned lock.
pub trait RwLockExt<T: ?Sized> {
    /// Blocks until a shared read lock is held; never fails.
    fn read_locked(&self) -> RwLockReadGuard<'_, T>;
    /// Blocks until the exclusive write lock is held; never fails.
    fn write_locked(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T: ?Sized> RwLockExt<T> for RwLock<T> {
    fn read_locked(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_locked(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_stay_usable() {
        let m = Mutex::new(1);
        let l = RwLock::new(vec![1]);
        let _ = std::panic::catch_unwind(|| {
            let _m = m.locked();
            let _l = l.write_locked();
            panic!("poison both");
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        *m.locked() += 1;
        l.write_locked().push(2);
        assert_eq!(*m.locked(), 2);
        assert_eq!(*l.read_locked(), [1, 2]);
    }
}
