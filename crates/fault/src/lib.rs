//! # qpgc_fault — deterministic failpoint injection
//!
//! Fault-tolerance claims are only as good as the faults they were tested
//! against. This crate provides *failpoints*: named sites in the serving
//! pipeline ([`fail_point!`]) that a test can arm to panic on a chosen hit,
//! exercising the exact recovery paths (panic isolation, staged-state
//! rollback, crash-consistent log replay) that an unlucky production batch
//! would.
//!
//! ## Design
//!
//! * **Zero cost when disabled.** Without the `failpoints` cargo feature,
//!   [`eval`] is an empty inlined function and, with the macro, all the
//!   crate exports — the instrumented crates carry the call sites
//!   unconditionally and pay nothing for them. The feature is compiled into *this* crate (the
//!   `fail_point!` macro expands to a call into it), so enabling it from a
//!   test package lights up every site in the workspace build, and brings
//!   in the arming API (`FaultPlan`, `install`) that only such a package
//!   calls.
//! * **Deterministic triggers.** A `FaultPlan` is a list of rules keyed
//!   by `(site, nth-hit)`: the `nth` time (1-based) the named site is
//!   evaluated under the plan, it panics with a recognizable payload
//!   (`"failpoint `site` (hit n)"`).
//! * **Thread-local plans.** A plan is installed on one thread
//!   (`install`) and counts that thread's hits only, so parallel tests
//!   cannot arm each other's sites. No product path hands work to another
//!   thread between a batch's first and last site — both stores stage,
//!   shard by shard, on the writer's thread — so hit `n` of a site is the
//!   same evaluation on every run.
//!
//! ## Usage
//!
//! ```
//! fn publish() {
//!     qpgc_fault::fail_point!("doc/publish");
//!     // ... the work the fault preempts ...
//! }
//!
//! // Without the `failpoints` feature (the default), nothing fires:
//! publish();
//!
//! // With it, a test arms the site and catches the induced panic:
//! # #[cfg(feature = "failpoints")]
//! # {
//! use qpgc_fault::FaultPlan;
//! let _guard = qpgc_fault::install(FaultPlan::new().fail_at("doc/publish", 1));
//! assert!(std::panic::catch_unwind(publish).is_err());
//! # }
//! ```

#![warn(missing_docs)]

/// Evaluates the failpoint `site`: panics iff the thread's active
/// `FaultPlan` has a rule whose `nth` matches the site's hit count.
/// Compiles to a no-op without the `failpoints` feature.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::eval($site)
    };
}

#[cfg(feature = "failpoints")]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// One armed failpoint plan: rules keyed by `(site, nth-hit)`, and the
    /// hits its sites have taken since it was installed.
    #[derive(Clone, Debug, Default)]
    pub struct FaultPlan {
        rules: Vec<(String, u64)>,
        hits: HashMap<String, u64>,
    }

    impl FaultPlan {
        /// An empty plan (no site fires).
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Arms `site` to panic on its `nth` evaluation (1-based) under
        /// this plan.
        // qpgc-lint: allow(dead-surface) -- armed by the fault-injection harness alone: the product evaluates sites, it never arms them
        pub fn fail_at(mut self, site: &str, nth: u64) -> Self {
            assert!(nth >= 1, "hit counts are 1-based");
            self.rules.push((site.to_string(), nth));
            self
        }

        /// Counts one hit of `site`; `Some(hit)` when a rule fires on it.
        fn hit(&mut self, site: &str) -> Option<u64> {
            if !self.rules.iter().any(|(s, _)| s == site) {
                return None;
            }
            let hit = self.hits.entry(site.to_string()).or_insert(0);
            *hit += 1;
            let hit = *hit;
            self.rules
                .iter()
                .any(|(s, nth)| s == site && *nth == hit)
                .then_some(hit)
        }
    }

    thread_local! {
        static ACTIVE: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
    }

    /// Clears the calling thread's plan when dropped, restoring whatever
    /// was active before.
    #[derive(Debug)]
    pub struct InstallGuard {
        previous: Option<FaultPlan>,
    }

    impl Drop for InstallGuard {
        fn drop(&mut self) {
            ACTIVE.with(|a| *a.borrow_mut() = self.previous.take());
        }
    }

    /// Installs `plan` as the calling thread's active plan for the guard's
    /// lifetime.
    // qpgc-lint: allow(dead-surface) -- armed by the fault-injection harness alone: the product evaluates sites, it never arms them
    pub fn install(plan: FaultPlan) -> InstallGuard {
        let previous = ACTIVE.with(|a| a.borrow_mut().replace(plan));
        InstallGuard { previous }
    }

    /// See [`fail_point!`](crate::fail_point).
    pub fn eval(site: &str) {
        let fired = ACTIVE.with(|a| a.borrow_mut().as_mut().and_then(|plan| plan.hit(site)));
        if let Some(hit) = fired {
            panic!("failpoint `{site}` (hit {hit})");
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    /// See [`fail_point!`](crate::fail_point) — a no-op in this build.
    #[inline(always)]
    pub fn eval(_site: &str) {}
}

pub use imp::eval;
#[cfg(feature = "failpoints")]
pub use imp::{install, FaultPlan, InstallGuard};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn payload(e: Box<dyn std::any::Any + Send>) -> String {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn unarmed_sites_never_fire() {
        eval("t/unarmed");
        let _g = install(FaultPlan::new().fail_at("t/other", 1));
        eval("t/unarmed");
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = install(FaultPlan::new().fail_at("t/nth", 3));
        eval("t/nth");
        eval("t/nth");
        let err = catch_unwind(AssertUnwindSafe(|| eval("t/nth"))).unwrap_err();
        assert_eq!(payload(err), "failpoint `t/nth` (hit 3)");
        // Hit 4 and beyond pass again.
        eval("t/nth");
        eval("t/nth");
    }

    #[test]
    fn plans_are_thread_local() {
        let _g = install(FaultPlan::new().fail_at("t/local", 1));
        // A thread without the plan never fires, and does not count
        // against the installing thread's hits.
        #[expect(clippy::disallowed_methods, reason = "the test needs a second thread")]
        std::thread::scope(|s| {
            s.spawn(|| eval("t/local")).join().unwrap();
        });
        assert!(catch_unwind(AssertUnwindSafe(|| eval("t/local"))).is_err());
    }

    #[test]
    fn guard_restores_the_previous_plan() {
        let _outer = install(FaultPlan::new().fail_at("t/outer", 1));
        {
            let _inner = install(FaultPlan::new());
            eval("t/outer"); // inner plan has no rule for it
        }
        // Outer plan is active again (and its counter starts fresh: the
        // inner evaluation ran under the inner plan).
        assert!(catch_unwind(AssertUnwindSafe(|| eval("t/outer"))).is_err());
    }
}
