//! Stackful cooperative tasks ("fibers") for the event-driven backend.
//!
//! A [`Fiber`] is a suspended computation with its own call stack. The
//! event core resumes exactly one fiber at a time on the driver thread;
//! the fiber runs until it either finishes or calls [`park_current`],
//! which switches back to the driver. Because only one fiber ever runs,
//! rank code needs no synchronization beyond what the thread backend
//! already uses, and the schedule is fully deterministic.
//!
//! Two substrates share the same surface and are selected at runtime via
//! [`Substrate`] (the public [`crate::runtime::Backend`] maps onto them):
//!
//! * `Native`: on `x86_64`-linux (the only tier-1 target) a fiber is a
//!   mmap'd stack plus a six-register user-space context switch, two
//!   VMAs per fiber, so 16k+ ranks fit comfortably in one process.
//!   Off that target it silently falls back to the thread substrate.
//! * `Thread`: a parked OS thread handing a baton back and forth with the
//!   driver. Identical semantics (one runner at a time, same switch
//!   points), just slower — it exists so the differential suite can prove
//!   the asm machinery changes nothing, and as the portable path.
//!
//! Safety contract with the caller (the event core):
//!
//! * A fiber's closure must catch its own panics — unwinding must never
//!   cross the context-switch boundary. The entry shim aborts the
//!   process if one escapes.
//! * A fiber dropped while suspended mid-run still owns live stack
//!   frames; its memory is leaked rather than freed (destructors on a
//!   suspended stack cannot be run). The driver only does this on its
//!   own unrecoverable-deadlock path.

use std::cell::Cell;

/// Fiber stack size in bytes: `MPISIM_STACK_KB` (KiB) or 1 MiB. That is
/// address space: stacks are committed lazily, so a fiber costs the pages
/// its deepest call chain has touched — two for an empty body (simbench's
/// `mpisim.spawn_minflt_per_rank` cell), more under a real workload, and
/// invisible to the allocator (`tests/alloc_budget.rs` cannot count them).
pub(crate) fn stack_bytes_from_env() -> usize {
    std::env::var("MPISIM_STACK_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|kb| kb.max(64) * 1024)
        .unwrap_or(1 << 20)
}

/// A boxed rank body. `Send` so the thread substrate can run it; the asm
/// substrate runs everything on the driver thread anyway.
pub(crate) type FiberFn = Box<dyn FnOnce() + Send + 'static>;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use asm_impl as native_impl;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
use thread_impl as native_impl;

/// Which execution substrate carries the rank bodies. The event loop and
/// its schedule are identical either way — this only selects what a
/// "stack" is, which is exactly what the cross-backend differential suite
/// exploits to validate the hand-rolled fiber switching against plain OS
/// threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Substrate {
    /// asm fibers on x86_64-linux (the tier-1 target); falls back to
    /// baton threads elsewhere.
    Native,
    /// One parked OS thread per rank, trading a baton with the driver.
    Thread,
}

/// A resumable rank task on the selected substrate.
pub(crate) enum Task {
    Native(native_impl::Fiber),
    Thread(thread_impl::Fiber),
}

impl Task {
    pub(crate) fn spawn(sub: Substrate, stack_bytes: usize, f: FiberFn) -> Task {
        match sub {
            Substrate::Native => Task::Native(native_impl::Fiber::spawn(stack_bytes, f)),
            Substrate::Thread => Task::Thread(thread_impl::Fiber::spawn(stack_bytes, f)),
        }
    }

    /// Run the task until it parks or finishes. Returns `true` once the
    /// closure has completed; the task must not be resumed again.
    pub(crate) fn resume(&mut self) -> bool {
        match self {
            Task::Native(f) => f.resume(),
            Task::Thread(f) => f.resume(),
        }
    }
}

/// Suspend the running task and return to the driver. Must be called from
/// inside a task; returns when the driver next resumes it. Dispatches on
/// which substrate owns the calling thread: asm fibers run *on* the
/// driver thread, baton fibers on their own.
pub(crate) fn park_current() {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if asm_impl::in_fiber() {
        return asm_impl::park_current();
    }
    thread_impl::park_current();
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod asm_impl {
    use super::{Cell, FiberFn};

    // Raw mmap/mprotect (std already links libc). A malloc'd stack would
    // work, but guarding its first page splits the allocator's arena into
    // extra VMAs; a dedicated mapping per fiber keeps it to exactly two,
    // well under `vm.max_map_count` even at 16k ranks.
    use std::ffi::c_void;
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    }
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const PAGE: usize = 4096;

    /// Saved-context cells plus the stack they point into. Boxed so the
    /// address baked into the new stack stays stable.
    struct Inner {
        /// Fiber-side saved stack pointer (valid while suspended).
        fiber_rsp: usize,
        /// Driver-side saved stack pointer (valid while the fiber runs).
        driver_rsp: usize,
        closure: Option<FiberFn>,
        finished: bool,
        started: bool,
        stack: Stack,
    }

    struct Stack {
        base: *mut u8,
        len: usize,
    }

    impl Stack {
        fn new(bytes: usize) -> Stack {
            let len = bytes.div_ceil(PAGE) * PAGE + PAGE; // + guard page
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            assert!(
                base as isize != -1 && !base.is_null(),
                "mmap of {len}-byte fiber stack failed"
            );
            // Guard page at the low end: overflow faults instead of
            // silently corrupting a neighbouring stack.
            let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
            assert_eq!(rc, 0, "mprotect(guard) failed");
            Stack {
                base: base.cast(),
                len,
            }
        }

        fn top(&self) -> *mut usize {
            // Page-aligned, hence 16-aligned as the ABI requires.
            unsafe { self.base.add(self.len).cast() }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            unsafe { munmap(self.base.cast(), self.len) };
        }
    }

    /// `switch(save, load)`: push the callee-saved registers, stash `rsp`
    /// in `*save`, adopt `*load`, pop, return — on the other stack.
    ///
    /// Only rbp/rbx/r12-r15 (and rsp via the swap) need saving: the
    /// System-V ABI makes everything else caller-saved, and the compiler
    /// treats this like any other `extern "C"` call.
    #[unsafe(naked)]
    extern "C" fn switch(_save: *mut usize, _load: *const usize) {
        std::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of every fiber. A fresh stack is seeded so that
    /// `switch` pops zeros into the callee-saved registers — except r12,
    /// which carries the `Inner` pointer — and "returns" here with `rsp`
    /// at the stack top (16-aligned, so the `call` below lands `entry`
    /// with standard alignment).
    #[unsafe(naked)]
    extern "C" fn trampoline() {
        std::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2", // entry never returns
            entry = sym entry,
        )
    }

    extern "C" fn entry(inner: *mut Inner) -> ! {
        {
            let inner = unsafe { &mut *inner };
            // Invariant: `new` stores the closure and only this entry, which
            // a stack runs once, takes it.
            let f = inner.closure.take().expect("fiber entered twice");
            // The closure catches its own panics (the rank body runs
            // under catch_unwind); one escaping here has no frame left to
            // unwind into, so the only sound option is to abort.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err() {
                std::process::abort();
            }
            inner.finished = true;
        }
        // Hand control back to the driver for good. The driver never
        // resumes a finished fiber; the loop is a belt-and-braces guard.
        loop {
            unsafe { switch(&mut (*inner).fiber_rsp, &(*inner).driver_rsp) };
        }
    }

    thread_local! {
        /// The fiber currently running on this thread (null in the driver).
        static CURRENT: Cell<*mut Inner> = const { Cell::new(std::ptr::null_mut()) };
    }

    /// Is the calling thread currently inside an asm fiber?
    pub(crate) fn in_fiber() -> bool {
        !CURRENT.with(Cell::get).is_null()
    }

    /// Suspend the running fiber and return to the driver. Must be called
    /// from inside a fiber; returns when the driver next resumes it.
    pub(crate) fn park_current() {
        let p = CURRENT.with(Cell::get);
        assert!(!p.is_null(), "park_current called outside a fiber");
        unsafe { switch(&mut (*p).fiber_rsp, &(*p).driver_rsp) };
    }

    pub(crate) struct Fiber {
        inner: Option<Box<Inner>>,
    }

    impl Fiber {
        /// Create a suspended fiber that will run `f` when first resumed.
        pub(crate) fn spawn(stack_bytes: usize, f: FiberFn) -> Fiber {
            let stack = Stack::new(stack_bytes);
            let mut inner = Box::new(Inner {
                fiber_rsp: 0,
                driver_rsp: 0,
                closure: Some(f),
                finished: false,
                started: false,
                stack,
            });
            let top = inner.stack.top();
            unsafe {
                // Seed the frame `switch` will pop on first resume; slot
                // layout mirrors its pop order (r15 lowest … ret highest).
                *top.sub(1) = trampoline as *const () as usize; // ret target
                *top.sub(2) = 0; // rbp
                *top.sub(3) = 0; // rbx
                *top.sub(4) = &mut *inner as *mut Inner as usize; // r12
                *top.sub(5) = 0; // r13
                *top.sub(6) = 0; // r14
                *top.sub(7) = 0; // r15
            }
            inner.fiber_rsp = unsafe { top.sub(7) } as usize;
            Fiber { inner: Some(inner) }
        }

        /// Run the fiber until it parks or finishes. Returns `true` once
        /// the closure has completed; the fiber must not be resumed again.
        pub(crate) fn resume(&mut self) -> bool {
            // Invariant (both expects): `inner` is `Some` from `new` until
            // `Drop`, the only place that takes it.
            let inner = self.inner.as_mut().expect("fiber leaked");
            debug_assert!(!inner.finished, "resumed a finished fiber");
            inner.started = true;
            let p: *mut Inner = &mut **inner;
            let prev = CURRENT.with(|c| c.replace(p));
            unsafe { switch(&mut (*p).driver_rsp, &(*p).fiber_rsp) };
            CURRENT.with(|c| c.set(prev));
            self.inner.as_ref().expect("fiber leaked").finished
        }

        #[cfg(test)]
        pub(crate) fn finished(&self) -> bool {
            self.inner.as_ref().is_some_and(|i| i.finished)
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            if let Some(inner) = &self.inner {
                if inner.started && !inner.finished {
                    // Suspended mid-run: live frames on the stack cannot
                    // be dropped without resuming. Leak instead of
                    // freeing memory that destructors might still touch.
                    std::mem::forget(self.inner.take());
                }
            }
        }
    }
}

/// Thread substrate: each fiber is an OS thread that trades a baton with
/// the driver, so at most one of them runs at any instant. This is the
/// execution vehicle of [`Substrate::Thread`] (the legacy thread-per-rank
/// backend) on every target, and also the `Native` fallback off
/// x86_64-linux.
mod thread_impl {
    use super::{Cell, FiberFn};
    use parking_lot::{Condvar, Mutex};
    use std::sync::Arc;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Baton {
        Driver,
        Fiber,
        Finished,
    }

    struct Chan {
        state: Mutex<Baton>,
        cv: Condvar,
    }

    impl Chan {
        fn hand(&self, to: Baton, wait_for: Baton) -> Baton {
            let mut st = self.state.lock();
            *st = to;
            self.cv.notify_all();
            while *st != wait_for && *st != Baton::Finished {
                self.cv.wait(&mut st);
            }
            *st
        }
    }

    thread_local! {
        static CURRENT: Cell<*const Chan> = const { Cell::new(std::ptr::null()) };
    }

    pub(crate) fn park_current() {
        let p = CURRENT.with(Cell::get);
        assert!(!p.is_null(), "park_current called outside a fiber");
        unsafe { &*p }.hand(Baton::Driver, Baton::Fiber);
    }

    pub(crate) struct Fiber {
        chan: Arc<Chan>,
        thread: Option<std::thread::JoinHandle<()>>,
        stack_bytes: usize,
        closure: Option<FiberFn>,
        finished: bool,
    }

    impl Fiber {
        pub(crate) fn spawn(stack_bytes: usize, f: FiberFn) -> Fiber {
            Fiber {
                chan: Arc::new(Chan {
                    state: Mutex::new(Baton::Driver),
                    cv: Condvar::new(),
                }),
                thread: None,
                stack_bytes,
                closure: Some(f),
                finished: false,
            }
        }

        pub(crate) fn resume(&mut self) -> bool {
            if self.finished {
                debug_assert!(false, "resumed a finished fiber");
                return true;
            }
            if self.thread.is_none() {
                // First resume: start the worker, parked until handed the
                // baton below.
                let chan = Arc::clone(&self.chan);
                // Invariant: `thread` is `None` exactly until this branch
                // ran once, and nothing else takes the closure.
                let f = self.closure.take().expect("fiber entered twice");
                let h = std::thread::Builder::new()
                    .name("mpisim-fiber".into())
                    .stack_size(self.stack_bytes)
                    .spawn(move || {
                        let p: *const Chan = &*chan;
                        CURRENT.with(|c| c.set(p));
                        {
                            let mut st = chan.state.lock();
                            while *st != Baton::Fiber {
                                chan.cv.wait(&mut st);
                            }
                        }
                        // Panics are caught by the rank body; one escaping
                        // would poison nothing (parking_lot), but the
                        // baton must still flip so the driver continues.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                        chan.hand(Baton::Finished, Baton::Finished);
                    })
                    // Not an invariant but a host limit: the oracle
                    // substrate is nothing without its thread, and `resume`
                    // has no error path (the event core never gets here).
                    .expect("failed to spawn fiber thread");
                self.thread = Some(h);
            }
            if self.chan.hand(Baton::Fiber, Baton::Driver) == Baton::Finished {
                self.finished = true;
                if let Some(h) = self.thread.take() {
                    let _ = h.join();
                }
            }
            self.finished
        }

        /// Used by the shared fiber tests on platforms where this module
        /// *is* the native implementation (see the alias below).
        #[cfg(test)]
        #[allow(dead_code)]
        pub(crate) fn finished(&self) -> bool {
            self.finished
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            if self.thread.is_some() && !self.finished {
                // Suspended mid-run: detach the worker (it stays parked
                // forever) rather than deadlocking on join.
                drop(self.thread.take());
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use thread_impl::{park_current, Fiber};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ping_pong<Fb>(
        spawn: impl Fn(usize, FiberFn) -> Fb,
        mut resume: impl FnMut(&mut Fb) -> bool,
        park: fn(),
    ) {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let mut f = spawn(
            64 * 1024,
            Box::new(move || {
                l2.lock().push("a");
                park();
                l2.lock().push("b");
                park();
                l2.lock().push("c");
            }),
        );
        assert!(!resume(&mut f), "parked, not finished");
        log.lock().push("driver1");
        assert!(!resume(&mut f));
        log.lock().push("driver2");
        assert!(resume(&mut f), "third resume finishes");
        assert_eq!(*log.lock(), vec!["a", "driver1", "b", "driver2", "c"]);
    }

    #[test]
    fn native_fiber_ping_pong() {
        use super::native_impl as ni;
        ping_pong(ni::Fiber::spawn, ni::Fiber::resume, park_current);
    }

    #[test]
    fn portable_fiber_ping_pong() {
        use super::thread_impl as ti;
        ping_pong(ti::Fiber::spawn, ti::Fiber::resume, ti::park_current);
    }

    #[test]
    fn many_fibers_interleave_deterministically() {
        use super::native_impl::Fiber;
        let counter = Arc::new(AtomicUsize::new(0));
        let n = 64;
        let mut fibers: Vec<Fiber> = (0..n)
            .map(|i| {
                let c = Arc::clone(&counter);
                Fiber::spawn(
                    64 * 1024,
                    Box::new(move || {
                        for round in 0..3 {
                            // Each round must observe the round-robin
                            // schedule the driver below imposes.
                            assert_eq!(c.fetch_add(1, Ordering::SeqCst), round * 64 + i);
                            park_current();
                        }
                    }),
                )
            })
            .collect();
        for _ in 0..3 {
            for f in &mut fibers {
                assert!(!f.finished());
                f.resume();
            }
        }
        for f in &mut fibers {
            assert!(f.resume(), "final resume returns from the last park");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3 * n);
    }

    #[test]
    fn unstarted_fiber_drops_cleanly() {
        let f = super::native_impl::Fiber::spawn(64 * 1024, Box::new(|| {}));
        drop(f); // closure + stack freed, nothing leaked
    }

    #[test]
    fn deep_stack_use_within_bounds_is_fine() {
        let mut f = super::native_impl::Fiber::spawn(
            512 * 1024,
            Box::new(|| {
                fn recurse(n: usize) -> usize {
                    let pad = [n as u8; 128];
                    if n == 0 {
                        pad[0] as usize
                    } else {
                        recurse(n - 1) + pad[64] as usize
                    }
                }
                // Recompute independently: each level adds (n % 256).
                let expect = (1..=1000usize).map(|n| n % 256).sum::<usize>();
                assert_eq!(recurse(1000), expect);
            }),
        );
        assert!(f.resume());
    }
}
