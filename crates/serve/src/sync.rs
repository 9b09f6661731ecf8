//! Poison-recovering synchronisation primitives.
//!
//! A `std::sync::Mutex` poisons when a holder panics, and every *later*
//! `.lock().unwrap()` then panics too — one crashed worker takes down every
//! thread that shares its state. The serving layer's invariants are all
//! single-operation (counters, map inserts, queue pops), so a panic mid-hold
//! cannot leave half-updated state worth refusing over; recovering the guard
//! is always the right call. [`Lock`] and [`RwLock`] bake that policy in so
//! call sites can't forget it.
//!
//! Neither wrapper exposes `std`'s poison flag. [`Checkout`] adds the one
//! timed wait the crate needs: a request gives up on a busy model's
//! estimator at its deadline.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex as StdMutex, MutexGuard, PoisonError, RwLock as StdRwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
use std::time::Instant;

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

/// A value one thread holds at a time, which a waiter can give up on at a
/// deadline. The holder moves the value out and [`Held`] puts it back on
/// drop, unwinding included, so the wait is a `Condvar` sleep, never a spin.
pub struct Checkout<T> {
    slot: StdMutex<Option<T>>,
    returned: Condvar,
}

impl<T> Checkout<T> {
    /// Hold `value` for checkout.
    pub fn new(value: T) -> Self {
        Checkout {
            slot: StdMutex::new(Some(value)),
            returned: Condvar::new(),
        }
    }

    /// The value, once no one else holds it, or `None` if `deadline`
    /// passes first.
    pub fn take_before(&self, deadline: Instant) -> Option<Held<'_, T>> {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let wait = deadline.saturating_duration_since(Instant::now());
        let (mut slot, _) = self
            .returned
            .wait_timeout_while(slot, wait, |s| s.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        let value = slot.take()?;
        Some(Held {
            value: Some(value),
            home: self,
        })
    }
}

/// A value checked out of a [`Checkout`]; dropping it returns the value and
/// wakes one waiter.
pub struct Held<'a, T> {
    value: Option<T>,
    home: &'a Checkout<T>,
}

impl<T> Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value.as_ref().expect("held until dropped")
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("held until dropped")
    }
}

impl<T> Drop for Held<'_, T> {
    fn drop(&mut self) {
        let mut slot = self
            .home
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = self.value.take();
        self.home.returned.notify_one();
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
    fn checkout_waits_until_its_deadline_and_survives_a_panic() {
        use std::time::Duration;
        let value = Arc::new(Checkout::new(7usize));
        let held = value.take_before(Instant::now()).expect("free value");
        let started = Instant::now();
        assert!(value
            .take_before(started + Duration::from_millis(50))
            .is_none());
        assert!(started.elapsed() >= Duration::from_millis(50));
        let waiter = {
            let value = Arc::clone(&value);
            std::thread::spawn(move || {
                *value
                    .take_before(Instant::now() + Duration::from_secs(60))
                    .expect("returned before the deadline")
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().unwrap(), 7);

        let panicker = Arc::clone(&value);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let mut held = panicker.take_before(Instant::now()).unwrap();
            *held = 9;
            panic!("panic while holding the value");
        }));
        assert_eq!(*value.take_before(Instant::now()).unwrap(), 9);
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
