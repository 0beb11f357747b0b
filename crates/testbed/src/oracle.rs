//! End-to-end oracle: the invariants that must hold after *any* fault
//! plan, chaotic or benign.
//!
//! Three families of checks, each returning human-readable violation strings
//! (empty = clean) so callers can assert, aggregate, or feed them to the
//! plan shrinker:
//!
//! * **Stream integrity** — the receiver read exactly the bytes the sender
//!   wrote, in order, with the expected pattern: no holes, duplicates, or
//!   corruption leaking past the checksums.
//! * **Conservation** — the `world.*` accounting identities from the fault
//!   soak suite: every transport packet checksummed exactly once, per-link
//!   byte and fault-fate counters summing to the world aggregates.
//! * **Healed end-state** — once every fault window has healed and the
//!   probes have run, no interface may still be degraded, wedged, or carrying
//!   an unbalanced degraded-entry/exit ledger (livelock/leak detector), and
//!   once the transfer has completed no CAB may hold a network-memory page
//!   and no host a user page.
//! * **Copy semantics** — no application wrote a buffer the stack or an
//!   engine still claimed, and no `write` or `read` completed early (the
//!   user-memory journal, recording in debug builds only).
//!
//! Violation strings are prefixed with a stable category token
//! (`integrity:`, `conservation:`, `endstate:`, `copy:`, `liveness:`) so the shrinker
//! can check that a shrunk plan reproduces the *same kind* of failure.

use crate::apps::{TtcpReceiver, TtcpSender};
use crate::world::World;
use outboard_sim::MetricsRegistry;

/// Fault fates that must aggregate exactly from per-link counters to the
/// `world.faults.*` totals.
pub(crate) const FAULT_FATES: [&str; 6] = [
    "offered",
    "dropped",
    "corrupted",
    "reordered",
    "duplicated",
    "stealth_corrupted",
];

/// Extract the stable category token from a violation string
/// (`"integrity: ..."` → `"integrity"`).
pub fn violation_category(v: &str) -> &str {
    v.split(':').next().unwrap_or(v)
}

/// Conservation identities over a published metrics snapshot.
///
/// `hosts` is the number of `host{h}.*` scopes to check (the ttcp worlds
/// have two). Returns one violation string per broken identity.
pub fn conservation_violations(r: &MetricsRegistry, hosts: usize) -> Vec<String> {
    let mut v = Vec::new();

    // Checksum conservation: every transport packet emitted was checksummed
    // exactly once, outboard or in software — even on retried, parked, or
    // degraded-path transmissions.
    for h in 0..hosts {
        let hw = r.counter_value(&format!("host{h}.csum.hw"));
        let sw = r.counter_value(&format!("host{h}.csum.sw"));
        let segs = r.counter_value(&format!("host{h}.tcp.segs_out"));
        let rsts = r.counter_value(&format!("host{h}.tcp.rst_sent"));
        let udp = r.counter_value(&format!("host{h}.udp.datagrams_out"));
        if hw + sw != segs + rsts + udp {
            v.push(format!(
                "conservation: host{h} checksums hw {hw} + sw {sw} != \
                 {segs} segs + {rsts} rsts + {udp} dgrams"
            ));
        }
    }

    // Fabric conservation: per-link admissions sum to the world totals.
    let link_bytes: u64 = r
        .iter()
        .filter(|(name, _)| name.starts_with("link.") && name.ends_with(".bytes_in"))
        .map(|(name, _)| r.counter_value(name))
        .sum();
    let world_bytes = r.counter_value("world.bytes_on_fabric");
    if link_bytes != world_bytes {
        v.push(format!(
            "conservation: link bytes_in sum {link_bytes} != world.bytes_on_fabric {world_bytes}"
        ));
    }

    // The aggregated fault counters must agree with the per-link ones.
    for fate in FAULT_FATES {
        let per_link: u64 = r
            .iter()
            .filter(|(name, _)| {
                name.starts_with("link.") && name.ends_with(&format!(".faults.{fate}"))
            })
            .map(|(name, _)| r.counter_value(name))
            .sum();
        let world = r.counter_value(&format!("world.faults.{fate}"));
        if per_link != world {
            v.push(format!(
                "conservation: world.faults.{fate} {world} != per-link sum {per_link}"
            ));
        }
    }

    v
}

/// Stream-integrity checks for a finished (or stalled) ttcp transfer:
/// the receiver must hold exactly `total_bytes` pattern-verified bytes and
/// the sender must have written them all.
pub(crate) fn integrity_violations(w: &World, total_bytes: usize) -> Vec<String> {
    let mut v = Vec::new();
    let recv = w.hosts[1].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>());
    match recv {
        Some(r) => {
            if r.verify_errors > 0 {
                v.push(format!(
                    "integrity: {} bytes failed pattern verification at the receiver",
                    r.verify_errors
                ));
            }
            if r.bytes_read != total_bytes {
                v.push(format!(
                    "integrity: receiver read {} of {total_bytes} bytes",
                    r.bytes_read
                ));
            }
        }
        None => v.push("integrity: no TtcpReceiver on host 1".to_string()),
    }
    let sent = w.hosts[0].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpSender>())
        .map(|s| s.bytes_written);
    match sent {
        Some(b) if b != total_bytes => {
            v.push(format!(
                "integrity: sender wrote {b} of {total_bytes} bytes"
            ));
        }
        None => v.push("integrity: no TtcpSender on host 0".to_string()),
        _ => {}
    }
    v
}

/// Copy-semantics violations the hosts' user-memory journals recorded
/// (always empty in a release build, which records none).
pub fn copy_violations(w: &World) -> Vec<String> {
    w.hosts
        .iter()
        .enumerate()
        .flat_map(|(h, host)| {
            let vs = host.kernel.user_violations();
            vs.iter().map(move |v| format!("copy: host{h} {v}"))
        })
        .collect()
}

/// Healed end-state checks: with every scheduled fault healed and probe
/// timers given time to fire, each CAB interface must be back on the
/// single-copy path with balanced degraded-mode transitions and no wedged
/// engine. Once every application has finished, each CAB must also hold no
/// network-memory page, and each host no user page
/// ([`held_page_violations`]): an outboard packet is released when its
/// last holder drops, so a page still in use after the transfer has
/// leaked.
pub fn endstate_violations(w: &World) -> Vec<String> {
    let mut v = Vec::new();
    let finished = w
        .hosts
        .iter()
        .all(|h| h.apps.iter().flatten().all(|a| a.finished()));
    if finished {
        v.extend(held_page_violations(w));
    }
    for (h, host) in w.hosts.iter().enumerate() {
        for iface in &host.kernel.ifaces {
            let Some(ci) = iface.cab_ref() else { continue };
            let id = iface.id.0;
            if ci.health.degraded {
                v.push(format!(
                    "endstate: host{h} iface{id} still degraded after all faults healed"
                ));
            }
            let d = &ci.health.stats;
            if d.degraded_entries != d.degraded_exits {
                v.push(format!(
                    "endstate: host{h} iface{id} degraded_entries {} != degraded_exits {}",
                    d.degraded_entries, d.degraded_exits
                ));
            }
            if ci.cab.any_engine_wedged() {
                v.push(format!(
                    "endstate: host{h} iface{id} has a wedged DMA engine after heal"
                ));
            }
            let nm = ci.cab.netmem();
            let pages = nm.pages_total() - nm.pages_free();
            if finished && pages > 0 {
                v.push(format!(
                    "endstate: host{h} iface{id} holds {pages} netmem pages"
                ));
            }
        }
    }
    v
}

/// User pages a host still holds: a pinned page is released when the last
/// operation holding its bytes ends (a lazily cached page is held by
/// none), so a page held once no operation is outstanding has leaked.
pub fn held_page_violations(w: &World) -> Vec<String> {
    let held = w.hosts.iter().map(|h| h.kernel.vm.held_page_count());
    (held.enumerate())
        .filter(|&(_, n)| n > 0)
        .map(|(h, n)| format!("endstate: host{h} holds {n} user pages"))
        .collect()
}
