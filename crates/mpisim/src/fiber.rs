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
//! Stacks are pooled per driver thread (see `asm_impl::Pool`): a
//! finished or never-started fiber hands its stack back, and the next
//! spawn takes it instead of mapping a new one. A cold spawn maps a stack
//! and faults in its top page; a warm spawn (every rank of a simulation
//! that follows one at least as large, on the same thread) makes no
//! syscall and takes no page fault.
//!
//! Safety contract with the caller (the event core):
//!
//! * A fiber's closure must catch its own panics — unwinding must never
//!   cross the context-switch boundary. The entry shim aborts the
//!   process if one escapes.
//! * A fiber dropped while suspended mid-run still owns live stack
//!   frames; its memory is leaked rather than freed or pooled
//!   (destructors on a suspended stack cannot be run, and a pooled stack
//!   would be handed to the next fiber). The driver only does this on its
//!   own unrecoverable-deadlock path.

use std::cell::Cell;

/// Usable stack of every fiber, on either substrate: 1 MiB.
///
/// That is address space: stacks are committed lazily, so a fiber costs
/// the pages its deepest call chain has touched, and invisibly to the
/// allocator (`tests/alloc_budget.rs` cannot count them). A cold fiber
/// faults those pages in (a page or two for an empty body); a warm one,
/// whose stack comes from the pool, faults only pages no earlier owner
/// touched (simbench's `mpisim.spawn_minflt_per_rank` cell times warm
/// spawns).
pub(crate) const STACK_BYTES: usize = 1 << 20;

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
    /// A suspended task that runs `f` when first resumed. Fails only when
    /// the host refuses the asm substrate a stack (`mmap` or the guard's
    /// `mprotect`); the error gives the host's reason.
    pub(crate) fn spawn(sub: Substrate, f: FiberFn) -> Result<Task, String> {
        Ok(match sub {
            Substrate::Native => Task::Native(native_impl::Fiber::spawn(f)?),
            Substrate::Thread => Task::Thread(thread_impl::Fiber::spawn(f)?),
        })
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
    use super::{Cell, FiberFn, STACK_BYTES};
    use std::cell::RefCell;
    use std::collections::VecDeque;

    // Raw mmap/mprotect (std already links libc). A malloc'd stack would
    // work, but guarding its first page splits the allocator's arena into
    // extra VMAs; a dedicated mapping per fiber keeps it to exactly two,
    // well under `vm.max_map_count` even at 16k ranks. This module is the
    // only place that declares them (CI lint "One stack allocator").
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

    /// One fiber stack: a private anonymous mapping of [`Stack::LEN`]
    /// bytes whose lowest page is a `PROT_NONE` guard, so an overflow
    /// faults instead of silently corrupting a neighbouring stack. Plain
    /// data: the [`Pool`] decides when it is unmapped.
    struct Stack {
        base: *mut u8,
    }

    impl Stack {
        /// Mapping length: the usable stack plus the guard page.
        const LEN: usize = STACK_BYTES + PAGE;

        fn map() -> Result<Stack, String> {
            let len = Self::LEN;
            // SAFETY: a fresh anonymous mapping at an address of the
            // kernel's choosing aliases nothing.
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
            if base as isize == -1 || base.is_null() {
                let why = std::io::Error::last_os_error();
                return Err(format!("mmap of a {len}-byte fiber stack failed: {why}"));
            }
            let stack = Stack { base: base.cast() };
            // SAFETY: the first page of the mapping made above.
            if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
                let why = std::io::Error::last_os_error();
                stack.unmap();
                return Err(format!(
                    "mprotect of a fiber stack's guard page failed: {why}"
                ));
            }
            Ok(stack)
        }

        fn unmap(self) {
            // SAFETY: the whole mapping `map` made; nothing points into it
            // once its fiber is gone (finished or never started).
            unsafe { munmap(self.base.cast(), Self::LEN) };
        }

        fn top(&self) -> *mut usize {
            // Page-aligned, hence 16-aligned as the ABI requires.
            unsafe { self.base.add(Self::LEN).cast() }
        }
    }

    /// The stacks of this thread's dropped fibers, kept for its next
    /// spawns.
    ///
    /// * A spawn takes the oldest pooled stack and maps a new one only
    ///   when none is free, so a warm spawn makes no syscall; its top
    ///   pages are still resident, so it takes no page fault either.
    ///   First in, first out: a simulation that follows one gives rank `i`
    ///   the stack rank `i` had.
    /// * A stack is mapped only while every stack the thread owns is in
    ///   use, so pooled plus in-use stacks never outnumber the most that
    ///   were in use at once. Their touched pages do stay resident
    ///   between simulations.
    /// * A stack comes back unwiped, guard page still `PROT_NONE`: a
    ///   frame writes its slots before it reads them.
    /// * A fiber leaked while suspended never hands its stack back; the
    ///   stack stays counted as in use, since it is still mapped.
    ///
    /// Thread-local: the driver thread that spawns and drops a
    /// simulation's fibers owns it, so it needs no lock, and simulations
    /// on other threads never see its stacks.
    struct Pool {
        free: VecDeque<Stack>,
        /// Stacks owned by fibers, leaked ones included.
        in_use: usize,
        /// The largest `in_use` so far.
        peak: usize,
        /// Stacks mapped so far (the warm path maps none).
        #[cfg(test)]
        maps: usize,
        /// Maps left before `map` fails as if the host refused (`None`:
        /// never).
        #[cfg(test)]
        map_budget: Option<usize>,
    }

    impl Pool {
        fn take(&mut self) -> Result<Stack, String> {
            let stack = match self.free.pop_front() {
                Some(stack) => stack,
                None => self.map()?,
            };
            self.in_use += 1;
            self.peak = self.peak.max(self.in_use);
            Ok(stack)
        }

        fn map(&mut self) -> Result<Stack, String> {
            #[cfg(test)]
            {
                if self.map_budget == Some(0) {
                    return Err(format!(
                        "mmap of a {}-byte fiber stack failed: test budget",
                        Stack::LEN
                    ));
                }
                self.map_budget = self.map_budget.map(|n| n - 1);
                self.maps += 1;
            }
            Stack::map()
        }

        fn give_back(&mut self, stack: Stack) {
            self.in_use -= 1;
            self.free.push_back(stack);
            debug_assert!(self.free.len() + self.in_use <= self.peak);
        }
    }

    impl Drop for Pool {
        fn drop(&mut self) {
            self.free.drain(..).for_each(Stack::unmap);
        }
    }

    thread_local! {
        static POOL: RefCell<Pool> = const {
            RefCell::new(Pool {
                free: VecDeque::new(),
                in_use: 0,
                peak: 0,
                #[cfg(test)]
                maps: 0,
                #[cfg(test)]
                map_budget: None,
            })
        };
    }

    /// This thread's pool counters: stacks mapped so far, pooled now, in
    /// use now (leaked ones included) and the most in use at once.
    #[cfg(test)]
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct PoolCounts {
        pub(crate) maps: usize,
        pub(crate) pooled: usize,
        pub(crate) in_use: usize,
        pub(crate) peak: usize,
    }

    #[cfg(test)]
    pub(crate) fn pool_counts() -> PoolCounts {
        POOL.with(|p| {
            let p = p.borrow();
            PoolCounts {
                maps: p.maps,
                pooled: p.free.len(),
                in_use: p.in_use,
                peak: p.peak,
            }
        })
    }

    /// Let this thread map `maps` more stacks, then fail every map as the
    /// host would (`None` lifts the limit).
    #[cfg(test)]
    pub(crate) fn set_map_budget(maps: Option<usize>) {
        POOL.with(|p| p.borrow_mut().map_budget = maps);
    }

    /// Base address of the running fiber's stack (`None` in the driver).
    #[cfg(test)]
    pub(crate) fn current_stack() -> Option<usize> {
        let p = CURRENT.with(Cell::get);
        // SAFETY: a non-null `CURRENT` is the running fiber's `Inner`,
        // alive until its `Fiber` is dropped by the driver.
        (!p.is_null()).then(|| unsafe { (*p).stack.base } as usize)
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
        /// Create a suspended fiber that will run `f` when first resumed,
        /// on a pooled stack if one is free (see [`Pool`]).
        pub(crate) fn spawn(f: FiberFn) -> Result<Fiber, String> {
            let stack = POOL.with(|p| p.borrow_mut().take())?;
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
            Ok(Fiber { inner: Some(inner) })
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
            let Some(inner) = self.inner.take() else {
                return;
            };
            if inner.started && !inner.finished {
                // Suspended mid-run: live frames on the stack cannot be
                // dropped without resuming. Leak, stack included, instead
                // of freeing or pooling memory that destructors might
                // still touch.
                std::mem::forget(inner);
                return;
            }
            let Inner { stack, .. } = *inner;
            POOL.with(|p| p.borrow_mut().give_back(stack));
        }
    }
}

/// Thread substrate: each fiber is an OS thread that trades a baton with
/// the driver, so at most one of them runs at any instant. This is the
/// execution vehicle of [`Substrate::Thread`] (the legacy thread-per-rank
/// backend) on every target, and also the `Native` fallback off
/// x86_64-linux.
mod thread_impl {
    use super::{Cell, FiberFn, STACK_BYTES};
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
        closure: Option<FiberFn>,
        finished: bool,
    }

    impl Fiber {
        /// Never fails: the worker thread starts at the first resume.
        pub(crate) fn spawn(f: FiberFn) -> Result<Fiber, String> {
            Ok(Fiber {
                chan: Arc::new(Chan {
                    state: Mutex::new(Baton::Driver),
                    cv: Condvar::new(),
                }),
                thread: None,
                closure: Some(f),
                finished: false,
            })
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
                    .stack_size(STACK_BYTES)
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

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
pub(crate) use asm_impl::{current_stack, pool_counts, set_map_budget};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ping_pong<Fb>(
        spawn: impl Fn(FiberFn) -> Result<Fb, String>,
        mut resume: impl FnMut(&mut Fb) -> bool,
        park: fn(),
    ) {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let mut f = spawn(Box::new(move || {
            l2.lock().push("a");
            park();
            l2.lock().push("b");
            park();
            l2.lock().push("c");
        }))
        .unwrap();
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
                Fiber::spawn(Box::new(move || {
                    for round in 0..3 {
                        // Each round must observe the round-robin
                        // schedule the driver below imposes.
                        assert_eq!(c.fetch_add(1, Ordering::SeqCst), round * 64 + i);
                        park_current();
                    }
                }))
                .unwrap()
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
        let f = super::native_impl::Fiber::spawn(Box::new(|| {})).unwrap();
        drop(f); // closure freed, stack pooled, nothing leaked
    }

    #[test]
    fn deep_stack_use_within_bounds_is_fine() {
        let mut f = super::native_impl::Fiber::spawn(Box::new(|| {
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
        }))
        .unwrap();
        assert!(f.resume());
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn dropped_fibers_hand_their_stacks_to_the_next_spawns() {
        use asm_impl::Fiber;
        /// Run `n` fibers to completion, drop them in order, and return
        /// the base of the stack each ran on.
        fn bases(n: usize) -> Vec<usize> {
            let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut fibers: Vec<Fiber> = (0..n)
                .map(|_| {
                    let seen = Arc::clone(&seen);
                    let body = move || seen.lock().push(current_stack().unwrap());
                    Fiber::spawn(Box::new(body)).unwrap()
                })
                .collect();
            for f in &mut fibers {
                assert!(f.resume());
            }
            drop(fibers);
            let bases = seen.lock().clone();
            bases
        }
        let now = || {
            let c = pool_counts();
            (c.maps, c.pooled, c.in_use, c.peak)
        };
        assert_eq!(now(), (0, 0, 0, 0), "each test thread starts with no pool");

        let cold = bases(3);
        assert_eq!(now(), (3, 3, 0, 3), "maps, pooled, in use, peak");
        let warm = bases(3);
        assert_eq!(now(), (3, 3, 0, 3), "a warm spawn maps nothing");
        assert_eq!(
            warm, cold,
            "first in, first out: each fiber gets its stack back"
        );

        // Leaked while suspended: never back in the pool, never reused.
        let stuck_base = Arc::new(AtomicUsize::new(0));
        let sb = Arc::clone(&stuck_base);
        let mut stuck = Fiber::spawn(Box::new(move || {
            sb.store(current_stack().unwrap(), Ordering::SeqCst);
            park_current();
        }))
        .unwrap();
        assert!(!stuck.resume());
        drop(stuck);
        assert_eq!(now(), (3, 2, 1, 3));
        let after = bases(3);
        assert!(!after.contains(&stuck_base.load(Ordering::SeqCst)));
        assert_eq!(now(), (4, 3, 1, 4), "one map replaces the leaked stack");
    }
}
