//! Synchronization facade: the single import point for every atomic, mutex,
//! and condvar used on the runtime's concurrent paths.
//!
//! Normally this is `std::sync::atomic` plus the non-poisoning
//! `Mutex`/`MutexGuard`/`Condvar` wrapper over `std::sync` below. Under
//! `--features model-check` the same names resolve to `loomlite` modeled
//! types instead, so each object's locator lock and reader word, the reader
//! slot table, and the `stm-log` group commit's lock and condvar can be
//! driven by the deterministic interleaving checker — see the "Correctness
//! tooling" section of the repository README. Outside a running model a
//! loomlite lock takes a raw lock, so `stm-kv`'s locks work under the
//! feature too.
//!
//! **Rule:** concurrent code in this crate, `stm-log` and `stm-kv` takes its
//! `Mutex`, `MutexGuard` and `Condvar` from this module, and the runtime and
//! the log take their `Atomic*` from it too, never from `std::sync`
//! directly, or it silently escapes the model checker (and trips the
//! `lint_concurrency` test). `Arc` stays `std::sync::Arc` in both
//! configurations: reference counting itself is not under test and keeping
//! the type stable preserves public signatures.

/// The atomic types the runtime and `stm-log` use, plus [`Ordering`].
///
/// [`Ordering`]: std::sync::atomic::Ordering
pub mod atomic {
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8};

    #[cfg(feature = "model-check")]
    pub use loomlite::sync::atomic::{AtomicBool, AtomicU64, AtomicU8};

    pub use std::sync::atomic::Ordering;
}

#[cfg(not(feature = "model-check"))]
pub use self::lock::{Condvar, Mutex, MutexGuard};

#[cfg(feature = "model-check")]
pub use loomlite::sync::{Condvar, Mutex, MutexGuard};

pub use std::sync::Arc;

#[cfg(all(test, not(feature = "model-check")))]
pub(crate) use self::lock::acquisitions;

/// `std::sync`'s lock and condvar without poisoning: a panic while a guard
/// is held leaves the lock usable, so one panicking holder cannot cascade
/// into every later `lock()`.
#[cfg(not(feature = "model-check"))]
mod lock {
    use std::ops::{Deref, DerefMut};
    use std::sync::{
        Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, TryLockError,
    };

    #[cfg(test)]
    thread_local! {
        static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Locks this thread has taken so far, by `lock` or a successful
    /// `try_lock` (test builds only: release builds count nothing).
    #[cfg(test)]
    pub(crate) fn acquisitions() -> u64 {
        ACQUISITIONS.with(std::cell::Cell::get)
    }

    /// A mutual-exclusion lock whose `lock` never fails.
    #[derive(Debug)]
    pub struct Mutex<T: ?Sized> {
        inner: StdMutex<T>,
    }

    /// RAII guard for [`Mutex`]. The inner guard is `None` only while a
    /// [`Condvar::wait`] has lent it to `std`.
    pub struct MutexGuard<'a, T: ?Sized> {
        inner: Option<StdMutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex protecting `value`.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: StdMutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking until it is available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            #[cfg(test)]
            ACQUISITIONS.with(|n| n.set(n.get() + 1));
            let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            MutexGuard { inner: Some(guard) }
        }

        /// Acquires the lock if it is free.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            let guard = match self.inner.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => return None,
            };
            #[cfg(test)]
            ACQUISITIONS.with(|n| n.set(n.get() + 1));
            Some(MutexGuard { inner: Some(guard) })
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard lent to a pending wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard lent to a pending wait")
        }
    }

    /// A condition variable whose waits take `&mut MutexGuard` and re-acquire
    /// the same lock before returning, ignoring poisoning.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: StdCondvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: StdCondvar::new(),
            }
        }

        /// Blocks until notified. Wakeups can be spurious: re-check the
        /// predicate in a loop.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let lent = guard.inner.take().expect("guard lent to a pending wait");
            let back = self.inner.wait(lent).unwrap_or_else(|e| e.into_inner());
            guard.inner = Some(back);
        }

        /// Wakes one waiting thread.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiting thread.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        /// Panics on another thread while holding `m`.
        fn panic_while_holding(m: &Arc<Mutex<u32>>) {
            let m = Arc::clone(m);
            let joined = std::thread::spawn(move || {
                let _guard = m.lock();
                panic!("a holder panics");
            })
            .join();
            assert!(joined.is_err());
        }

        #[test]
        fn lock_survives_panicking_holder() {
            let m = Arc::new(Mutex::new(0));
            panic_while_holding(&m);
            *m.lock() += 1;
            assert_eq!(*m.lock(), 1);
            assert!(m.try_lock().is_some());
        }

        #[test]
        fn condvar_handoff() {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let waiter = {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    let (lock, cv) = &*pair;
                    let mut ready = lock.lock();
                    while !*ready {
                        cv.wait(&mut ready);
                    }
                })
            };
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_one();
            waiter.join().unwrap();
        }

        #[test]
        fn condvar_survives_poisoned_waiter_peer() {
            // A panicking holder of the lock must not break a later wait on
            // it. The waiter holds the lock before the notifier starts, so
            // the notifier's store waits for the wait to release it.
            let m = Arc::new(Mutex::new(0));
            panic_while_holding(&m);
            let cv = Arc::new(Condvar::new());
            let mut guard = m.lock();
            let notifier = {
                let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
                std::thread::spawn(move || {
                    *m.lock() = 1;
                    cv.notify_all();
                })
            };
            while *guard == 0 {
                cv.wait(&mut guard);
            }
            drop(guard);
            notifier.join().unwrap();
        }
    }
}
