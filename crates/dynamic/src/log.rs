//! The ASUL mutation log: a checkpointable record of every applied update.
//!
//! An [`UpdateLog`] binds a fingerprint of the *base* graph to the full
//! sequence of mutations applied since, plus a watermark (`applied_seq`)
//! recording how far the owner had durably applied them. The owner appends
//! each accepted batch and saves — atomically, via the same
//! temp-file/fsync/rename discipline the checkpoint subsystem uses — so the
//! on-disk file is always internally consistent: a crash mid-save leaves the
//! previous good log in place. Recovery is [`UpdateLog::load`] followed by
//! [`UpdateLog::replay`], which rebuilds a [`DynamicIndex`] on the base
//! graph and re-applies the logged prefix; the driver then feeds whatever
//! tail of its source trace lies beyond the recovered watermark
//! ([`UpdateLog::entries_after`] is the mirror-side helper).
//!
//! Fault sites: `dynamic::log_write` covers serialization + the atomic
//! rename (io-error, short-write and panic actions), `dynamic::log_read`
//! covers the load path. Both are exercised in CI's `dynamic-smoke` job.
//!
//! ## ASUL v2 layout (all integers little-endian)
//!
//! | section   | contents                                                  |
//! |-----------|-----------------------------------------------------------|
//! | header    | magic `ASUL`, version u32                                 |
//! | base      | n u64, arcs u64, edges u64, FNV-1a hash u64               |
//! | watermark | `applied_seq` u64                                         |
//! | term      | replication term u64 (v2+; v1 logs load as term 0)        |
//! | entries   | count u64, then per entry: seq u64, u u32, v u32, op u8, w f64 |
//! | trailer   | FNV-1a checksum of everything above (u64)                 |

use std::path::Path;

use anyscan_graph::io::framing::{self, Buf, BufMut, Bytes, BytesMut, Fnv64};
use anyscan_graph::CsrGraph;
use anyscan_telemetry::Telemetry;

use crate::engine::DynamicIndex;
use crate::graph::DynGraph;
use crate::update::{DynError, EdgeOp, EdgeUpdate};

/// File magic of the update-log format.
pub const LOG_MAGIC: &[u8; 4] = b"ASUL";
/// Current format version. v2 added the replication term; v1 logs still
/// load (with term 0).
pub const LOG_VERSION: u32 = 2;

/// Identity of the graph a log's mutations start from — same FNV-1a
/// construction as the checkpoint subsystem's graph fingerprint, so a log
/// can never silently replay onto the wrong base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStamp {
    /// Number of vertices.
    pub n: u64,
    /// Number of stored arcs (including self-loops).
    pub arcs: u64,
    /// Number of undirected edges.
    pub edges: u64,
    /// FNV-1a over every vertex id, neighbor id and weight bit pattern.
    pub hash: u64,
}

impl GraphStamp {
    /// Stamp of a CSR graph.
    pub fn of(g: &CsrGraph) -> GraphStamp {
        let mut h = Fnv64::new();
        for v in g.vertices() {
            h.update_u32(v);
            for (q, w) in g.neighbors(v) {
                h.update_u32(q);
                h.update_u64(w.to_bits());
            }
        }
        GraphStamp {
            n: g.num_vertices() as u64,
            arcs: g.num_arcs() as u64,
            edges: g.num_edges(),
            hash: h.finish(),
        }
    }

    /// Stamp of the dynamic mirror — identical to [`GraphStamp::of`] on the
    /// CSR snapshot of the same graph (rows and iteration order coincide).
    pub fn of_dyn(g: &DynGraph) -> GraphStamp {
        let mut h = Fnv64::new();
        for v in 0..g.num_vertices() {
            h.update_u32(v as u32);
            for &(q, w) in g.row(v as u32) {
                h.update_u32(q);
                h.update_u64(w.to_bits());
            }
        }
        GraphStamp {
            n: g.num_vertices() as u64,
            arcs: g.num_arcs() as u64,
            edges: g.num_edges(),
            hash: h.finish(),
        }
    }
}

/// A base-graph fingerprint, a watermark and the ordered mutations between
/// them. See the module docs for the recovery contract.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateLog {
    base: GraphStamp,
    applied_seq: u64,
    term: u64,
    entries: Vec<EdgeUpdate>,
}

impl UpdateLog {
    /// Empty log anchored to `base`.
    pub fn new(base: &CsrGraph) -> UpdateLog {
        UpdateLog {
            base: GraphStamp::of(base),
            applied_seq: 0,
            term: 0,
            entries: Vec::new(),
        }
    }

    /// Empty log anchored to `base` with its watermark pre-set to
    /// `applied_seq` — for an owner that starts mid-stream, e.g. a primary
    /// keeping an in-memory shipping log anchored at the watermark its
    /// engine was recovered to. Such a log can only back-fill entries
    /// appended after the anchor.
    pub fn new_at(base: &CsrGraph, applied_seq: u64) -> UpdateLog {
        UpdateLog {
            base: GraphStamp::of(base),
            applied_seq,
            term: 0,
            entries: Vec::new(),
        }
    }

    /// Fingerprint of the graph the log starts from.
    pub fn base(&self) -> GraphStamp {
        self.base
    }

    /// Watermark: sequence number of the last durably applied update.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Replication term the owner last committed under (0 for a log that
    /// never served in a replicated deployment, and for loaded v1 logs).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Records a term change (promotion, or a replica adopting its
    /// primary's term). Terms are monotonic: lowering is a no-op.
    pub fn set_term(&mut self, term: u64) {
        self.term = self.term.max(term);
    }

    /// Every logged update, in sequence order.
    pub fn entries(&self) -> &[EdgeUpdate] {
        &self.entries
    }

    /// First free sequence number for a producer assigning its own.
    pub fn next_seq(&self) -> u64 {
        self.applied_seq + 1
    }

    /// The suffix of entries with `seq > after` — what a driver still has to
    /// feed when resuming a source trace against a recovered log.
    pub fn entries_after(&self, after: u64) -> &[EdgeUpdate] {
        let start = self.entries.partition_point(|e| e.seq <= after);
        &self.entries[start..]
    }

    /// Records one applied batch and advances the watermark. The batch must
    /// be strictly ascending and start above the current watermark (the
    /// engine enforces the same rule, so an accepted batch always appends
    /// cleanly).
    pub fn append_batch(&mut self, updates: &[EdgeUpdate]) -> Result<(), DynError> {
        let mut floor = self.applied_seq;
        for up in updates {
            if up.seq <= floor {
                return Err(DynError::Sequence { seq: up.seq, floor });
            }
            floor = up.seq;
        }
        self.entries.extend_from_slice(updates);
        self.applied_seq = floor;
        Ok(())
    }

    /// Serializes to the ASUL v2 byte layout (with checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64 + self.entries.len() * 25);
        framing::put_header(&mut buf, LOG_MAGIC, LOG_VERSION);
        buf.put_u64_le(self.base.n);
        buf.put_u64_le(self.base.arcs);
        buf.put_u64_le(self.base.edges);
        buf.put_u64_le(self.base.hash);
        buf.put_u64_le(self.applied_seq);
        buf.put_u64_le(self.term);
        buf.put_u64_le(self.entries.len() as u64);
        for e in &self.entries {
            buf.put_u64_le(e.seq);
            buf.put_u32_le(e.u);
            buf.put_u32_le(e.v);
            buf.put_u8(e.op.code());
            buf.put_f64_le(e.op.weight());
        }
        framing::put_checksum_trailer(&mut buf);
        buf.to_vec()
    }

    /// Inverse of [`UpdateLog::to_bytes`], with structural validation:
    /// checksum, strictly ascending sequence numbers, watermark equal to the
    /// last entry (0 for an empty log), decodable ops.
    pub fn from_bytes(raw: Vec<u8>) -> Result<UpdateLog, DynError> {
        let corrupt = |e: anyscan_graph::GraphError| DynError::Corrupt(e.to_string());
        let mut buf: Bytes = framing::strip_checksum_trailer(raw).map_err(corrupt)?;
        let version =
            framing::get_header_versioned(&mut buf, LOG_MAGIC, 1..=LOG_VERSION).map_err(corrupt)?;
        framing::need(&buf, 48).map_err(corrupt)?;
        let base = GraphStamp {
            n: buf.get_u64_le(),
            arcs: buf.get_u64_le(),
            edges: buf.get_u64_le(),
            hash: buf.get_u64_le(),
        };
        let applied_seq = buf.get_u64_le();
        let term = if version >= 2 {
            framing::need(&buf, 16).map_err(corrupt)?;
            buf.get_u64_le()
        } else {
            0
        };
        let count = buf.get_u64_le();
        let Ok(count) = usize::try_from(count) else {
            return Err(DynError::Corrupt(format!("entry count {count} overflows")));
        };
        let Some(bytes) = count.checked_mul(25) else {
            return Err(DynError::Corrupt(format!("entry count {count} overflows")));
        };
        framing::need(&buf, bytes).map_err(corrupt)?;
        let mut entries = Vec::with_capacity(count);
        let mut floor = 0u64;
        for i in 0..count {
            let seq = buf.get_u64_le();
            let u = buf.get_u32_le();
            let v = buf.get_u32_le();
            let code = buf.get_u8();
            let w = buf.get_f64_le();
            if seq <= floor {
                return Err(DynError::Corrupt(format!(
                    "entry {i}: sequence {seq} not above predecessor {floor}"
                )));
            }
            floor = seq;
            let Some(op) = EdgeOp::from_wire(code, w) else {
                return Err(DynError::Corrupt(format!(
                    "entry {i}: unknown op code {code}"
                )));
            };
            entries.push(EdgeUpdate { seq, u, v, op });
        }
        if buf.remaining() > 0 {
            return Err(DynError::Corrupt(format!(
                "{} trailing bytes",
                buf.remaining()
            )));
        }
        if floor != applied_seq {
            return Err(DynError::Corrupt(format!(
                "watermark {applied_seq} disagrees with last entry sequence {floor}"
            )));
        }
        Ok(UpdateLog {
            base,
            applied_seq,
            term,
            entries,
        })
    }

    /// Atomically persists the log: write to `<path>.tmp`, fsync, rename,
    /// then fsync the parent directory where the platform allows it. A crash
    /// at any point leaves either the old log or the new one, never a
    /// mixture. Fault site: `dynamic::log_write`.
    pub fn save(&self, path: &Path) -> Result<(), DynError> {
        anyscan_faults::inject_io("dynamic::log_write")?;
        let mut bytes = self.to_bytes();
        anyscan_faults::inject_write("dynamic::log_write", &mut bytes)?;

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            use std::io::Write as _;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            return Err(DynError::Io(e));
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads and validates a log. Fault site: `dynamic::log_read`.
    pub fn load(path: &Path) -> Result<UpdateLog, DynError> {
        anyscan_faults::inject_io("dynamic::log_read")?;
        let raw = std::fs::read(path)?;
        UpdateLog::from_bytes(raw)
    }

    /// Recovery: rebuilds a [`DynamicIndex`] on `base` and re-applies every
    /// logged entry in batches of `batch` (0 = one batch), leaving the
    /// engine at the log's watermark. Replay is deterministic, so the
    /// recovered engine is bit-identical to the one that wrote the log.
    /// Fails if `base` does not match the log's fingerprint.
    pub fn replay(
        &self,
        base: &CsrGraph,
        threads: usize,
        batch: usize,
        telemetry: &Telemetry,
    ) -> Result<DynamicIndex, DynError> {
        let actual = GraphStamp::of(base);
        if actual != self.base {
            return Err(DynError::Incompatible(format!(
                "log taken against |V|={} arcs={} hash={:#018x}, \
                 given |V|={} arcs={} hash={:#018x}",
                self.base.n, self.base.arcs, self.base.hash, actual.n, actual.arcs, actual.hash
            )));
        }
        let mut engine = DynamicIndex::new_traced(base, threads, telemetry)?;
        let chunk = if batch == 0 {
            self.entries.len().max(1)
        } else {
            batch
        };
        for slice in self.entries.chunks(chunk) {
            engine.apply_batch(slice, telemetry)?;
        }
        // Watermark == last entry sequence by construction (append_batch
        // and from_bytes both enforce it), so the engine lands exactly on it.
        debug_assert_eq!(engine.applied_seq(), self.applied_seq);
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::EdgeOp;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_log(g: &CsrGraph) -> UpdateLog {
        let mut log = UpdateLog::new(g);
        log.append_batch(&[
            EdgeUpdate {
                seq: 1,
                u: 0,
                v: 9,
                op: EdgeOp::Insert(1.25),
            },
            EdgeUpdate {
                seq: 2,
                u: 1,
                v: 2,
                op: EdgeOp::Remove,
            },
            EdgeUpdate {
                seq: 5,
                u: 0,
                v: 9,
                op: EdgeOp::Reweight(2.5),
            },
        ])
        .unwrap();
        log
    }

    #[test]
    fn bytes_roundtrip_and_corruption_detection() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = erdos_renyi(&mut rng, 20, 60, WeightModel::uniform_default());
        let log = sample_log(&g);
        let bytes = log.to_bytes();
        assert_eq!(UpdateLog::from_bytes(bytes.clone()).unwrap(), log);

        // Flip one payload byte: checksum must catch it.
        let mut bad = bytes.clone();
        bad[20] ^= 0x40;
        assert!(matches!(
            UpdateLog::from_bytes(bad),
            Err(DynError::Corrupt(_))
        ));
        // Truncation.
        assert!(UpdateLog::from_bytes(bytes[..bytes.len() - 9].to_vec()).is_err());
    }

    #[test]
    fn term_roundtrips_and_is_monotonic() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = erdos_renyi(&mut rng, 10, 20, WeightModel::uniform_default());
        let mut log = sample_log(&g);
        assert_eq!(log.term(), 0);
        log.set_term(3);
        log.set_term(1); // lowering is a no-op: terms only move forward
        assert_eq!(log.term(), 3);
        let back = UpdateLog::from_bytes(log.to_bytes()).unwrap();
        assert_eq!(back.term(), 3);
        assert_eq!(back, log);
    }

    #[test]
    fn v1_log_without_term_still_loads() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = erdos_renyi(&mut rng, 10, 20, WeightModel::uniform_default());
        let log = sample_log(&g);
        // Hand-assemble the v1 layout: identical to v2 minus the term field.
        let mut buf = BytesMut::new();
        framing::put_header(&mut buf, LOG_MAGIC, 1);
        buf.put_u64_le(log.base.n);
        buf.put_u64_le(log.base.arcs);
        buf.put_u64_le(log.base.edges);
        buf.put_u64_le(log.base.hash);
        buf.put_u64_le(log.applied_seq);
        buf.put_u64_le(log.entries.len() as u64);
        for e in &log.entries {
            buf.put_u64_le(e.seq);
            buf.put_u32_le(e.u);
            buf.put_u32_le(e.v);
            buf.put_u8(e.op.code());
            buf.put_f64_le(e.op.weight());
        }
        framing::put_checksum_trailer(&mut buf);
        let loaded = UpdateLog::from_bytes(buf.to_vec()).unwrap();
        assert_eq!(loaded.term(), 0);
        assert_eq!(loaded.entries(), log.entries());
        assert_eq!(loaded.applied_seq(), log.applied_seq());
    }

    #[test]
    fn watermark_must_match_last_entry() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = erdos_renyi(&mut rng, 10, 20, WeightModel::uniform_default());
        let mut log = sample_log(&g);
        log.applied_seq = 9; // desync on purpose
        assert!(matches!(
            UpdateLog::from_bytes(log.to_bytes()),
            Err(DynError::Corrupt(_))
        ));
    }

    #[test]
    fn append_rejects_sequence_regressions() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = erdos_renyi(&mut rng, 10, 20, WeightModel::uniform_default());
        let mut log = sample_log(&g);
        let err = log
            .append_batch(&[EdgeUpdate {
                seq: 5,
                u: 3,
                v: 4,
                op: EdgeOp::Remove,
            }])
            .unwrap_err();
        assert!(matches!(err, DynError::Sequence { seq: 5, floor: 5 }));
        assert_eq!(log.entries().len(), 3, "rejected batch must not append");
        assert_eq!(log.entries_after(2).len(), 1);
        assert_eq!(log.next_seq(), 6);
    }

    #[test]
    fn save_load_replay_with_fault_sites() {
        let dir = std::env::temp_dir().join(format!("asul-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.asul");

        let mut rng = StdRng::seed_from_u64(24);
        let g = erdos_renyi(&mut rng, 40, 160, WeightModel::uniform_default());
        let log = sample_log(&g);
        log.save(&path).unwrap();
        let loaded = UpdateLog::load(&path).unwrap();
        assert_eq!(loaded, log);

        // Replay lands on the watermark and matches a direct apply.
        let replayed = loaded.replay(&g, 2, 2, &Telemetry::disabled()).unwrap();
        assert_eq!(replayed.applied_seq(), 5);
        let mut direct = DynamicIndex::new(&g, 2).unwrap();
        direct
            .apply_batch(log.entries(), &Telemetry::disabled())
            .unwrap();
        assert_eq!(replayed.index(), direct.index());

        // Wrong base graph is refused.
        let mut rng2 = StdRng::seed_from_u64(99);
        let other = erdos_renyi(&mut rng2, 40, 160, WeightModel::uniform_default());
        assert!(matches!(
            loaded.replay(&other, 1, 0, &Telemetry::disabled()),
            Err(DynError::Incompatible(_))
        ));

        // Injected faults surface as typed I/O errors and leave the last
        // good file intact (short write corrupts the payload -> Corrupt on
        // load of a *fresh* path only; the atomic save of the good file
        // above is untouched by a failed save here).
        // Scoped, so other tests saving or loading logs concurrently in
        // this binary neither trip nor consume the faults.
        let scope = anyscan_faults::FaultScope::new();
        let io = anyscan_faults::FaultAction::IoError;
        scope.arm("dynamic::log_write", io, 1);
        assert!(matches!(log.save(&path), Err(DynError::Io(_))));
        scope.arm("dynamic::log_read", io, 1);
        assert!(matches!(UpdateLog::load(&path), Err(DynError::Io(_))));
        drop(scope);
        assert_eq!(
            UpdateLog::load(&path).unwrap(),
            log,
            "good file survives failed save"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
