//! Deterministic failpoint injection.
//!
//! Production code marks *failpoints* — named sites where an IO error, a
//! short (torn) write, or a job panic can be injected on demand. Faults are
//! armed either through the `ANYSCAN_FAULTS` environment variable or
//! programmatically (tests), and fire deterministically: each site keeps a
//! hit counter and a spec fires exactly once, on its configured hit.
//!
//! Spec syntax (`;`-separated):
//!
//! ```text
//! ANYSCAN_FAULTS="site=action[@hit];site2=action2"
//! ```
//!
//! with `action` one of `io-error`, `short-write:BYTES`, `panic` and `hit`
//! the 1-based occurrence at which to fire (default 1). Example:
//!
//! ```text
//! ANYSCAN_FAULTS="driver::block=panic@5;checkpoint::write=short-write:16"
//! ```
//!
//! Failpoint catalog (sites referenced by production code):
//!
//! | site                  | style | effect when fired                       |
//! |-----------------------|-------|-----------------------------------------|
//! | `graph::read_binary`  | io    | read fails with an injected IO error    |
//! | `graph::write_binary` | write | error, or the file is truncated         |
//! | `index::read_index`   | io    | read fails with an injected IO error    |
//! | `index::read_reorder` | io    | parsing the ASIX v3 reorder byte fails  |
//! | `index::read_sketches`| io    | parsing the ASIX v4 sketch section fails|
//! | `index::write_index`  | write | error, or the file is truncated         |
//! | `checkpoint::read`    | io    | checkpoint load fails                   |
//! | `checkpoint::write`   | write | error, or a torn (truncated) checkpoint |
//! | `pool::job`           | panic | a worker-pool job panics mid-block      |
//! | `driver::block`       | panic | the anytime loop panics at a boundary   |
//! | `serve::read_frame`   | io    | a daemon connection read fails mid-frame|
//! | `dynamic::log_read`   | io    | loading an ASUL update log fails        |
//! | `dynamic::log_write`  | write | error, or a torn (truncated) update log |
//! | `repl::ack`           | io    | primary fails writing the `Subscribed` ack |
//! | `repl::send_entry`    | io    | primary's entry-stream write to a replica fails |
//! | `repl::recv_entry`    | io    | replica's read of a replicated frame fails |
//!
//! When nothing is armed the per-site check is two relaxed atomic loads.
//!
//! `ANYSCAN_FAULTS` and [`configure`] arm a site process-wide. A test that
//! shares its binary with other users of a site arms it through a
//! [`FaultScope`] instead: the fault then counts and fires only on hits
//! inside the scope — its thread, plus the worker-pool jobs that thread
//! submits (executors carry the scope with [`in_scope`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable holding the failpoint spec.
pub const ENV_VAR: &str = "ANYSCAN_FAULTS";

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the surrounding operation with an injected `std::io::Error`.
    IoError,
    /// Drop the last `n` bytes of a write (a torn write), then succeed.
    ShortWrite(usize),
    /// Panic at the site (exercises `catch_unwind` recovery paths).
    Panic,
}

#[derive(Debug, Clone, Copy)]
struct FaultSpec {
    action: FaultAction,
    /// 1-based hit at which the fault fires (exactly once).
    at_hit: u64,
    /// Hits counted so far.
    hits: u64,
}

/// Identifies a fault scope; the default is the process-wide one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ScopeId(u64);

/// Armed specs keyed by `(scope, site)`.
#[derive(Default)]
struct Registry(HashMap<(ScopeId, String), FaultSpec>);

impl Registry {
    /// Counts one hit of `site` in `scope`; the action if the spec is due.
    fn hit(&mut self, scope: ScopeId, site: &str) -> Option<FaultAction> {
        let spec = self.0.get_mut(&(scope, site.to_string()))?;
        spec.hits += 1;
        (spec.hits == spec.at_hit).then_some(spec.action)
    }

    fn arm(&mut self, scope: ScopeId, site: &str, action: FaultAction, at_hit: u64) {
        let spec = FaultSpec {
            action,
            at_hit: at_hit.max(1),
            hits: 0,
        };
        self.0.insert((scope, site.to_string()), spec);
        ARMED.store(true, Ordering::Release);
    }

    fn disarm(&mut self, scope: ScopeId) {
        self.0.retain(|(s, _), _| *s != scope);
        ARMED.store(!self.0.is_empty(), Ordering::Release);
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
static STATE: OnceLock<Mutex<Registry>> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<ScopeId> = const { Cell::new(ScopeId(0)) };
}

fn state() -> std::sync::MutexGuard<'static, Registry> {
    let reg = STATE.get_or_init(|| {
        let mut reg = Registry::default();
        match std::env::var(ENV_VAR).map(|raw| parse_spec(&raw)) {
            Ok(Ok(specs)) => {
                for (site, spec) in specs {
                    reg.arm(ScopeId::default(), &site, spec.action, spec.at_hit);
                }
            }
            Ok(Err(e)) => eprintln!("warning: ignoring {ENV_VAR}: {e}"),
            Err(_) => {}
        }
        Mutex::new(reg)
    });
    reg.lock().unwrap_or_else(|p| p.into_inner())
}

fn parse_spec(raw: &str) -> Result<HashMap<String, FaultSpec>, String> {
    let mut specs = HashMap::new();
    for entry in raw.split(';').filter(|e| !e.trim().is_empty()) {
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("{entry:?}: expected site=action"))?;
        let (action_raw, at_hit) = match rest.split_once('@') {
            Some((a, h)) => {
                let hit: u64 = h
                    .trim()
                    .parse()
                    .map_err(|_| format!("{entry:?}: bad hit count {h:?}"))?;
                if hit == 0 {
                    return Err(format!("{entry:?}: hit count is 1-based"));
                }
                (a, hit)
            }
            None => (rest, 1),
        };
        let action = match action_raw.trim() {
            "io-error" => FaultAction::IoError,
            "panic" => FaultAction::Panic,
            other => match other.strip_prefix("short-write:") {
                Some(n) => FaultAction::ShortWrite(
                    n.parse()
                        .map_err(|_| format!("{entry:?}: bad short-write byte count {n:?}"))?,
                ),
                None => return Err(format!("{entry:?}: unknown action {other:?}")),
            },
        };
        let spec = FaultSpec {
            action,
            at_hit,
            hits: 0,
        };
        specs.insert(site.trim().to_string(), spec);
    }
    Ok(specs)
}

/// Checks the failpoint `site`; returns the action to apply if it fires.
///
/// Each call against an armed site advances that site's hit counter (the
/// process-wide spec's, and the current scope's); a spec fires exactly
/// once, on its configured hit. Near-zero cost when no fault is armed.
#[inline]
pub fn trigger(site: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Acquire) {
        if STATE.get().is_some() {
            return None;
        }
        drop(state()); // first call: parse the environment once
        if !ARMED.load(Ordering::Acquire) {
            return None;
        }
    }
    trigger_slow(site)
}

#[cold]
fn trigger_slow(site: &str) -> Option<FaultAction> {
    let scope = current_scope();
    let mut reg = state();
    let global = reg.hit(ScopeId::default(), site);
    let scoped = (scope != ScopeId::default()).then(|| reg.hit(scope, site));
    let fired = scoped.flatten().or(global);
    if fired.is_some() {
        INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    fired
}

/// Checks a read/open-style failpoint: `IoError` (and, degenerately, any
/// other armed action) becomes an injected `std::io::Error`, except `Panic`
/// which panics.
pub fn inject_io(site: &str) -> std::io::Result<()> {
    match trigger(site) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("injected fault: {site}"),
        Some(_) => Err(injected_io_error(site)),
    }
}

/// Panics iff a `panic` action is armed at `site` and due; other actions at
/// the site are ignored. For pure compute sites with no IO to fail.
pub fn fire_panic(site: &str) {
    if trigger(site) == Some(FaultAction::Panic) {
        panic!("injected fault: {site}");
    }
}

/// Applies a write-style failpoint to an in-memory payload about to be
/// persisted: may fail with an injected IO error, or truncate the payload
/// (a torn write that a checksum trailer must catch on read).
pub fn inject_write(site: &str, payload: &mut Vec<u8>) -> std::io::Result<()> {
    match trigger(site) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("injected fault: {site}"),
        Some(FaultAction::IoError) => Err(injected_io_error(site)),
        Some(FaultAction::ShortWrite(n)) => {
            let keep = payload.len().saturating_sub(n.max(1));
            payload.truncate(keep);
            Ok(())
        }
    }
}

fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {site}"))
}

/// Total number of faults fired process-wide (telemetry's `faults_injected`).
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Programmatically arms a failpoint process-wide (tests whose binary has
/// no other user of `site`). `at_hit` is 1-based.
pub fn configure(site: &str, action: FaultAction, at_hit: u64) {
    state().arm(ScopeId::default(), site, action, at_hit);
}

/// Disarms every process-wide failpoint (tests); scoped ones stay armed.
pub fn clear() {
    state().disarm(ScopeId::default());
}

/// The fault scope the current thread runs in.
pub fn current_scope() -> ScopeId {
    CURRENT.with(Cell::get)
}

/// Runs `f` in `scope` on the current thread, restoring the previous scope
/// afterwards (also on unwind).
pub fn in_scope<R>(scope: ScopeId, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(CURRENT.with(|c| c.replace(scope)));
    f()
}

struct Restore(ScopeId);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

/// An RAII fault scope, entered on the creating thread until it drops;
/// dropping it disarms its faults and restores the previous scope.
pub struct FaultScope {
    id: ScopeId,
    _restore: Restore,
    /// Entered on one thread's stack: neither `Send` nor `Sync`.
    _thread_bound: PhantomData<*const ()>,
}

impl FaultScope {
    /// Opens a fresh, empty scope and enters it on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> FaultScope {
        let id = ScopeId(NEXT_SCOPE.fetch_add(1, Ordering::Relaxed));
        FaultScope {
            id,
            _restore: Restore(CURRENT.with(|c| c.replace(id))),
            _thread_bound: PhantomData,
        }
    }

    /// Arms `site` in this scope; `at_hit` (1-based) counts only the
    /// scope's own hits.
    pub fn arm(&self, site: &str, action: FaultAction, at_hit: u64) {
        state().arm(self.id, site, action, at_hit);
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        state().disarm(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global, so exercise everything in one test
    // to avoid cross-test interference under the parallel test runner.
    #[test]
    fn spec_parsing_and_deterministic_firing() {
        let specs = parse_spec("a=io-error;b=short-write:16@3; c = panic @ 2").unwrap();
        assert_eq!(specs["a"].action, FaultAction::IoError);
        assert_eq!(specs["a"].at_hit, 1);
        assert_eq!(specs["b"].action, FaultAction::ShortWrite(16));
        assert_eq!(specs["b"].at_hit, 3);
        assert_eq!(specs["c"].action, FaultAction::Panic);
        assert_eq!(specs["c"].at_hit, 2);

        assert!(parse_spec("nope").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=io-error@0").is_err());
        assert!(parse_spec("a=short-write:x").is_err());
        assert!(parse_spec("").unwrap().is_empty());

        clear();
        assert_eq!(trigger("t::site"), None);

        let before = injected();
        configure("t::site", FaultAction::IoError, 3);
        assert_eq!(trigger("t::site"), None); // hit 1
        assert_eq!(trigger("t::other"), None); // foreign site: no effect
        assert_eq!(trigger("t::site"), None); // hit 2
        assert_eq!(trigger("t::site"), Some(FaultAction::IoError)); // hit 3
        assert_eq!(trigger("t::site"), None); // fires exactly once
        assert_eq!(injected(), before + 1);

        configure("t::io", FaultAction::IoError, 1);
        assert!(inject_io("t::io").is_err());
        assert!(inject_io("t::io").is_ok());

        configure("t::write", FaultAction::ShortWrite(4), 1);
        let mut payload = vec![7u8; 10];
        inject_write("t::write", &mut payload).unwrap();
        assert_eq!(payload.len(), 6);

        configure("t::panic", FaultAction::Panic, 1);
        let caught = std::panic::catch_unwind(|| fire_panic("t::panic"));
        assert!(caught.is_err());

        clear();
        assert!(inject_io("t::io").is_ok());

        // Scoped arming: only hits inside the scope count and fire.
        let scope = FaultScope::new();
        let id = current_scope();
        assert_ne!(id, ScopeId::default());
        scope.arm("s::site", FaultAction::IoError, 2);
        let outside = std::thread::spawn(|| (0..3).all(|_| trigger("s::site").is_none()));
        assert!(outside.join().unwrap(), "unscoped thread must not fire");
        assert_eq!(trigger("s::site"), None); // scope hit 1
        let carried = std::thread::spawn(move || in_scope(id, || trigger("s::site")));
        assert_eq!(carried.join().unwrap(), Some(FaultAction::IoError)); // hit 2
        assert_eq!(trigger("s::site"), None); // fires exactly once
        scope.arm("s::io", FaultAction::IoError, 1);
        clear(); // process-wide clear leaves scoped specs armed
        assert!(inject_io("s::io").is_err());
        scope.arm("s::io", FaultAction::IoError, 1);
        drop(scope);
        assert_eq!(current_scope(), ScopeId::default());
        assert!(inject_io("s::io").is_ok(), "dropping the scope disarms it");
    }
}
