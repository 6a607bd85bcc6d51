//! Drop-in subset of the `parking_lot` API backed by `std::sync`.
//!
//! The build environment has no registry access, so the workspace vendors
//! the tiny slice of `parking_lot` it actually uses as a local crate with
//! the same package name — `use parking_lot::{Mutex, Condvar}`
//! keeps working unchanged throughout the tree.
//!
//! Semantics preserved from the real crate:
//!
//! - `Mutex::lock` returns its guard directly (no `Result`); poisoning is
//!   transparently ignored, matching parking_lot's no-poisoning behaviour.
//! - `Condvar::wait(&mut MutexGuard)` atomically releases and reacquires
//!   the mutex in place.
//!
//! One addition: debug builds count the guards alive on each thread
//! ([`live_guards`]), so a caller can check that it holds no lock at a
//! point where it must not (the simulator's clock funnels and parks).

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[cfg(debug_assertions)]
thread_local! {
    /// Guards of this crate's mutexes alive on this thread.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

/// How many [`MutexGuard`]s the calling thread holds. Counted in debug
/// builds only; a release build always reports 0.
pub fn live_guards() -> usize {
    #[cfg(debug_assertions)]
    return LIVE.with(Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

/// Mutual exclusion primitive. `lock()` never fails: a poisoned inner lock
/// (panicked holder) is recovered, as parking_lot has no poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner));
        #[cfg(debug_assertions)]
        LIVE.with(|n| n.set(n.get() + 1));
        MutexGuard { inner }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`]. Holds the std guard in an `Option` so
/// [`Condvar::wait`] can temporarily take ownership during the blocking
/// wait and put the reacquired guard back.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        LIVE.with(|n| n.set(n.get() - 1));
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Condition variable compatible with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the mutex while parked. Spurious
    /// wakeups are possible, exactly as with the real parking_lot.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard already taken");
        let reacquired = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn condvar_wait_releases_and_reacquires() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().unwrap());
    }

    #[test]
    fn guards_are_counted_per_thread_in_debug_builds() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        assert_eq!(live_guards(), 0);
        let ga = a.lock();
        let gb = b.lock();
        let held = if cfg!(debug_assertions) { 2 } else { 0 };
        assert_eq!(live_guards(), held);
        assert_eq!(thread::spawn(live_guards).join().unwrap(), 0);
        drop((ga, gb));
        assert_eq!(live_guards(), 0);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
