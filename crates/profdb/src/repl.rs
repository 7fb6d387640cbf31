//! Replica delta exchange: the unit of replication between the replicas
//! of a shard.
//!
//! A **delta** is one client-submitted merge — the *incoming* profile
//! entry plus the request's idempotency id — not the WAL's post-merge
//! redo state. That distinction is what makes replication delivery-order
//! independent: post-merge states are absolute snapshots (applying them
//! out of order rolls counters back), whereas incoming entries are pure
//! increments under [`ProfileEntry::merge`], which is commutative,
//! associative, and saturating byte-for-byte. Any replica that applies
//! the same *set* of deltas — in any order, with any duplication —
//! converges to the identical store bytes:
//!
//! * ordering: merge commutativity/associativity (PR 3's property,
//!   strengthened to exact byte equality by the canonical top-table
//!   order);
//! * duplication: every delta carries a nonzero request id and is
//!   applied through [`ProfileDb::merge_store_logged`]'s dedup, so
//!   redelivery is exactly-once;
//! * loss: the sender retries a batch until acknowledged; resends are
//!   harmless by the previous two points.
//!
//! Batches reuse the WAL redo record's shape — `(req_id, entry text)`
//! pairs — in a line-oriented, checksummed text envelope that travels
//! inside wire-protocol request bodies:
//!
//! ```text
//! # profdb delta-batch v1
//! count <N>
//! delta id=<16 hex> bytes=<B>
//! <B bytes of profile entry text>
//! ...
//! checksum <16 hex>              fnv1a64 of everything above
//! ```

use crate::entry::{DbError, ProfileEntry};
use crate::hash::fnv1a64;
use crate::store::{DigestEntry, ProfileDb};
use std::fmt::Write as _;

/// Header line of the batch envelope.
pub const DELTA_BATCH_HEADER: &str = "# profdb delta-batch v1";

/// Header line of the digest-table envelope.
pub const DIGEST_TABLE_HEADER: &str = "# profdb digest v1";

/// One replicated merge: the client's incoming entry and its idempotency
/// id (never zero — dedup is what makes redelivery safe).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Idempotency id stamped by the original submitter.
    pub req_id: u64,
    /// The *pre-merge* incoming entry text (a `# profdb v1` document).
    pub entry_text: String,
}

/// What applying a batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplyReport {
    /// Deltas merged into the store.
    pub applied: usize,
    /// Deltas skipped because their id was already applied.
    pub deduped: usize,
}

/// Serializes a delta batch into its checksummed text envelope.
pub fn encode_delta_batch(deltas: &[DeltaRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{DELTA_BATCH_HEADER}");
    let _ = writeln!(out, "count {}", deltas.len());
    for d in deltas {
        let _ = writeln!(
            out,
            "delta id={:016x} bytes={}",
            d.req_id,
            d.entry_text.len()
        );
        out.push_str(&d.entry_text);
        if !d.entry_text.ends_with('\n') {
            out.push('\n');
        }
    }
    let sum = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "checksum {sum:016x}");
    out
}

fn batch_err(msg: impl Into<String>) -> DbError {
    DbError::KeyMismatch(format!("delta batch: {}", msg.into()))
}

/// Parses and verifies a delta batch envelope.
///
/// # Errors
///
/// Returns [`DbError::KeyMismatch`] for any structural problem — bad
/// header, count mismatch, zero id, or a checksum that does not match
/// (a corrupted batch must be rejected whole, never half-applied).
pub fn decode_delta_batch(text: &str) -> Result<Vec<DeltaRecord>, DbError> {
    // Split off and verify the checksum line first: it covers every
    // preceding byte, so nothing else is trusted until it matches.
    let body_end = text
        .rfind("checksum ")
        .ok_or_else(|| batch_err("missing checksum line"))?;
    if body_end == 0 || text.as_bytes()[body_end - 1] != b'\n' {
        return Err(batch_err("checksum line not at line start"));
    }
    let sum_line = text[body_end..].trim_end();
    let tail = &text[body_end + sum_line.len()..];
    if !tail.trim().is_empty() {
        return Err(batch_err("trailing bytes after checksum line"));
    }
    let want = sum_line
        .strip_prefix("checksum ")
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or_else(|| batch_err(format!("unparsable checksum line `{sum_line}`")))?;
    let body = &text[..body_end];
    let got = fnv1a64(body.as_bytes());
    if got != want {
        return Err(batch_err(format!(
            "checksum mismatch: batch says {want:016x}, content hashes to {got:016x}"
        )));
    }

    let mut rest = body;
    let line = |rest: &mut &str| -> Option<String> {
        let end = rest.find('\n')?;
        let l = rest[..end].to_string();
        *rest = &rest[end + 1..];
        Some(l)
    };
    let header = line(&mut rest).ok_or_else(|| batch_err("empty batch"))?;
    if header.trim() != DELTA_BATCH_HEADER {
        return Err(batch_err(format!("bad header `{}`", header.trim())));
    }
    let count_line = line(&mut rest).ok_or_else(|| batch_err("missing count"))?;
    let count: usize = count_line
        .strip_prefix("count ")
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| batch_err(format!("bad count line `{count_line}`")))?;

    let mut deltas = Vec::with_capacity(count);
    for i in 0..count {
        let head = line(&mut rest).ok_or_else(|| batch_err(format!("truncated at delta {i}")))?;
        let rest_head = head
            .strip_prefix("delta id=")
            .ok_or_else(|| batch_err(format!("bad delta header `{head}`")))?;
        let (id_s, bytes_s) = rest_head
            .split_once(" bytes=")
            .ok_or_else(|| batch_err(format!("bad delta header `{head}`")))?;
        let req_id = u64::from_str_radix(id_s.trim(), 16)
            .map_err(|_| batch_err(format!("bad delta id `{id_s}`")))?;
        if req_id == 0 {
            return Err(batch_err(format!(
                "delta {i} has id 0: exactly-once replication needs a real idempotency id"
            )));
        }
        let nbytes: usize = bytes_s
            .trim()
            .parse()
            .map_err(|_| batch_err(format!("bad delta length `{bytes_s}`")))?;
        let entry_text = rest
            .get(..nbytes)
            .ok_or_else(|| batch_err(format!("delta {i} overruns the batch")))?
            .to_string();
        rest = rest
            .get(nbytes..)
            .ok_or_else(|| batch_err(format!("delta {i} splits a character")))?;
        // encode adds a newline after non-newline-terminated payloads;
        // swallow the separator either way.
        if let Some(stripped) = rest.strip_prefix('\n') {
            if !entry_text.ends_with('\n') {
                rest = stripped;
            }
        }
        deltas.push(DeltaRecord { req_id, entry_text });
    }
    if !rest.trim().is_empty() {
        return Err(batch_err(format!(
            "{} byte(s) of slack between last delta and checksum",
            rest.len()
        )));
    }
    Ok(deltas)
}

/// Serializes a digest table into its text envelope (no checksum line —
/// digests travel inside checksummed wire frames and are advisory: a
/// corrupted digest at worst triggers one spurious repair round, which
/// dedup makes harmless).
pub fn encode_digest_table(entries: &[DigestEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{DIGEST_TABLE_HEADER}");
    let _ = writeln!(out, "count {}", entries.len());
    for e in entries {
        let _ = writeln!(
            out,
            "entry {} {:016x} {:016x}",
            e.workload, e.module_hash, e.digest
        );
    }
    out
}

/// Parses a digest-table envelope.
///
/// # Errors
///
/// Returns [`DbError::KeyMismatch`] for a bad header, count mismatch, or
/// unparsable line.
pub fn decode_digest_table(text: &str) -> Result<Vec<DigestEntry>, DbError> {
    let err = |msg: String| DbError::KeyMismatch(format!("digest table: {msg}"));
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| err("empty".into()))?;
    if header.trim() != DIGEST_TABLE_HEADER {
        return Err(err(format!("bad header `{}`", header.trim())));
    }
    let count_line = lines.next().ok_or_else(|| err("missing count".into()))?;
    let count: usize = count_line
        .strip_prefix("count ")
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| err(format!("bad count line `{count_line}`")))?;
    let mut entries = Vec::with_capacity(count);
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("entry ")
            .ok_or_else(|| err(format!("bad line `{line}`")))?;
        let mut parts = rest.split_whitespace();
        let (Some(workload), Some(hash_s), Some(digest_s), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(err(format!("bad line `{line}`")));
        };
        let module_hash = u64::from_str_radix(hash_s, 16)
            .map_err(|_| err(format!("bad module hash `{hash_s}`")))?;
        let digest = u64::from_str_radix(digest_s, 16)
            .map_err(|_| err(format!("bad digest `{digest_s}`")))?;
        entries.push(DigestEntry {
            workload: workload.to_string(),
            module_hash,
            digest,
        });
    }
    if entries.len() != count {
        return Err(err(format!(
            "count says {count}, table holds {}",
            entries.len()
        )));
    }
    Ok(entries)
}

impl ProfileDb {
    /// Applies a replication delta batch, exactly-once per id: each
    /// delta's entry is parsed and merged through
    /// [`ProfileDb::merge_store_logged`] under its original request id,
    /// so redelivered or overlapping batches never double-count. Every
    /// delta that actually applied is also appended to the pre-merge
    /// retention window, so anti-entropy can later re-send it verbatim
    /// to a diverged sibling.
    ///
    /// # Errors
    ///
    /// Propagates parse/merge/WAL failures of the first failing delta;
    /// deltas before it are applied and durable (redelivery of the whole
    /// batch is the intended retry path — dedup skips them).
    pub fn apply_deltas(&self, deltas: &[DeltaRecord]) -> Result<DeltaApplyReport, DbError> {
        let mut report = DeltaApplyReport::default();
        for d in deltas {
            let entry = ProfileEntry::from_text(&d.entry_text)?;
            if self.apply_delta(&entry, d.req_id, &d.entry_text)? {
                report.applied += 1;
            } else {
                report.deduped += 1;
            }
        }
        Ok(report)
    }

    /// Applies one delta whose entry the caller already holds parsed:
    /// merged exactly-once under `req_id` (nonzero), then retained as
    /// `entry_text` (which must be `entry`'s text) for anti-entropy.
    /// Returns false when the id was a duplicate and nothing changed.
    ///
    /// # Errors
    ///
    /// Propagates merge/WAL/retention failures, as
    /// [`ProfileDb::apply_deltas`] does.
    pub fn apply_delta(
        &self,
        entry: &ProfileEntry,
        req_id: u64,
        entry_text: &str,
    ) -> Result<bool, DbError> {
        let (_, duplicate) = self.merge_store_logged(entry, req_id)?;
        if !duplicate {
            self.retain_delta(req_id, entry_text)?;
        }
        Ok(!duplicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(id: u64, text: &str) -> DeltaRecord {
        DeltaRecord {
            req_id: id,
            entry_text: text.to_string(),
        }
    }

    #[test]
    fn batch_round_trip() {
        let deltas = vec![
            delta(0x1111, "# profdb v1\nworkload a\n"),
            delta(0x2222, "no trailing newline"),
            delta(0xffff_ffff_ffff_ffff, ""),
        ];
        let text = encode_delta_batch(&deltas);
        let back = decode_delta_batch(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], deltas[0]);
        assert_eq!(back[1].entry_text, "no trailing newline");
        assert_eq!(back[2].req_id, u64::MAX);
    }

    #[test]
    fn empty_batch_round_trips() {
        let text = encode_delta_batch(&[]);
        assert!(decode_delta_batch(&text).unwrap().is_empty());
    }

    #[test]
    fn corrupted_batch_is_rejected_whole() {
        let text = encode_delta_batch(&[delta(7, "# profdb v1\nworkload a\n")]);
        let evil = text.replace("workload a", "workload b");
        let err = decode_delta_batch(&evil).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn zero_id_is_rejected() {
        // Hand-build a batch with id 0 (encode would happily write it,
        // but apply-side dedup could not make it exactly-once).
        let mut body = format!("{DELTA_BATCH_HEADER}\ncount 1\ndelta id=0 bytes=1\nx\n");
        let sum = crate::hash::fnv1a64(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        let err = decode_delta_batch(&body).unwrap_err();
        assert!(err.to_string().contains("id 0"), "{err}");
    }

    #[test]
    fn digest_table_round_trips_and_rejects_garbage() {
        let entries = vec![
            DigestEntry {
                workload: "gap".into(),
                module_hash: 0x9,
                digest: 0xdead_beef,
            },
            DigestEntry {
                workload: "mcf".into(),
                module_hash: 0x1234,
                digest: 1,
            },
        ];
        let text = encode_digest_table(&entries);
        assert_eq!(decode_digest_table(&text).unwrap(), entries);
        assert!(decode_digest_table(&encode_digest_table(&[]))
            .unwrap()
            .is_empty());
        assert!(decode_digest_table("").is_err());
        assert!(decode_digest_table("# wrong header\ncount 0\n").is_err());
        let short = text.replace("count 2", "count 3");
        assert!(decode_digest_table(&short).is_err());
        let mangled = text.replace("entry mcf", "mcf entry");
        assert!(decode_digest_table(&mangled).is_err());
    }

    #[test]
    fn applied_deltas_are_retained_for_anti_entropy() {
        let root = std::env::temp_dir().join(format!("repl-retain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let db = ProfileDb::open(&root).unwrap();
        let text = ProfileEntry {
            workload: "mcf".into(),
            module_hash: 3,
            runs: 1,
            edge_tables: vec![vec![5, 0, 3]],
            stride: stride_profiling::StrideProfile::new(),
        }
        .to_text();
        let a = delta(0x11, &text);
        let b = delta(0x22, &text);
        db.apply_deltas(&[a.clone(), b.clone(), a.clone()]).unwrap();
        // Two applied, the redelivered duplicate deduped — and only the
        // applied ones retained, in order.
        assert_eq!(db.retained_deltas(), vec![a.clone(), b.clone()]);
        drop(db);
        // The window is durable across a crash-reopen...
        let db = ProfileDb::open(&root).unwrap();
        assert_eq!(db.retained_deltas(), vec![a, b]);
        // ...and cleared by a checkpoint (the repair-window bound).
        db.checkpoint().unwrap();
        drop(db);
        let db = ProfileDb::open(&root).unwrap();
        assert!(db.retained_deltas().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checksum_line_without_digits_is_a_typed_error() {
        // Used to slice past the end of the trimmed `checksum` line.
        let err = decode_delta_batch("# x\nchecksum \n").unwrap_err();
        assert!(
            err.to_string().contains("unparsable checksum line"),
            "{err}"
        );
    }

    #[test]
    fn truncated_batch_is_rejected() {
        let text = encode_delta_batch(&[delta(7, "payload text here")]);
        // Rebuild with a length overrunning the body but a valid checksum.
        let evil_body = text
            .replace("bytes=17", "bytes=9999")
            .rsplit_once("checksum ")
            .map(|(body, _)| body.to_string())
            .unwrap();
        let sum = crate::hash::fnv1a64(evil_body.as_bytes());
        let evil = format!("{evil_body}checksum {sum:016x}\n");
        let err = decode_delta_batch(&evil).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
    }
}
