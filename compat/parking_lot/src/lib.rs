//! Offline stand-in for `parking_lot`: thin wrappers over `std::sync`
//! with parking_lot's non-poisoning API (guards come back directly, not
//! wrapped in `Result`). A poisoned std lock panics — acceptable here
//! because the analysis driver isolates panics before they can poison a
//! shared lock.

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock (see [`std::sync::Mutex`]).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the lock.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A condition variable (see [`std::sync::Condvar`]). Unlike the real
/// parking_lot the wait API takes the guard **by value** and hands it
/// back — std guards cannot be re-acquired through an `&mut` borrow
/// without unsafe code.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates the condition variable.
    pub fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Releases the lock, blocks until notified (or spuriously woken),
    /// and returns the re-acquired guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.inner.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A reader-writer lock (see [`std::sync::RwLock`]).
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates the lock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn condvar_wait_hands_the_guard_back() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let waker = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                *pair.0.lock() = true;
                pair.1.notify_one();
            })
        };
        let mut ready = pair.0.lock();
        while !*ready {
            ready = pair.1.wait(ready);
        }
        drop(ready);
        waker.join().unwrap();
    }

    #[test]
    fn survives_poisoning() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1; // must not panic
        assert_eq!(*m.lock(), 1);
    }
}
