//! Poison-recovering synchronisation primitives.
//!
//! A `std::sync::Mutex` poisons when a holder panics, and every *later*
//! `.lock().unwrap()` then panics too — one crashed worker takes down every
//! thread that shares its state. The serving layer's invariants are all
//! single-operation (counters, map inserts, queue pops), so a panic mid-hold
//! cannot leave half-updated state worth refusing over; recovering the guard
//! is always the right call. [`Lock`] and [`RwLock`] bake that policy in so
//! call sites can't forget it. Neither wrapper exposes `std`'s poison flag.

use std::sync::{
    Mutex as StdMutex, MutexGuard, RwLock as StdRwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// A mutex whose `lock()` recovers from poisoning instead of panicking.
#[derive(Debug, Default)]
pub struct Lock<T>(StdMutex<T>);

impl<T> Lock<T> {
    /// Wrap `value` in a poison-recovering mutex.
    pub fn new(value: T) -> Self {
        Lock(StdMutex::new(value))
    }

    /// Acquire the lock, clearing any poison left by a panicked holder.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose guards recover from poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(StdRwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` in a poison-recovering reader-writer lock.
    pub fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }

    /// Acquire a shared guard, clearing any poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive guard, clearing any poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Best-effort text of a payload caught by `std::panic::catch_unwind`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn lock_survives_poisoning() {
        let lock = Arc::new(Lock::new(7usize));
        let poisoner = Arc::clone(&lock);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = poisoner.lock();
            panic!("poison the mutex");
        }));
        assert_eq!(*lock.lock(), 7, "lock still usable after a panic");
        *lock.lock() = 9;
        assert_eq!(*lock.lock(), 9);
    }

    #[test]
    fn rwlock_survives_poisoning() {
        let lock = Arc::new(RwLock::new(vec![1, 2]));
        let poisoner = Arc::clone(&lock);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = poisoner.write();
            panic!("poison the rwlock");
        }));
        assert_eq!(lock.read().len(), 2);
        lock.write().push(3);
        assert_eq!(lock.read().len(), 3);
    }
}
