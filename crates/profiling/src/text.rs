//! Text serialization of profiles — the feedback-file format a production
//! compiler would write after the profiling run and read back in the
//! recompile (the paper's cross-compilation usability discussion in §3.2
//! is exactly about shipping these files around).
//!
//! The format is line-oriented and human-auditable. Version 2 adds an
//! integrity count to the header so truncated files are rejected instead
//! of silently losing sites; v1 files (no count) are still read:
//!
//! ```text
//! # edge profile v2 funcs=1
//! func fn0 counters=25
//! e3 1234
//! # stride profile v2 sites=1
//! site fn0 i5 total=100 zero=3 zdiff=88 diffs=99 top=64:90,8:10
//! ```

use crate::freq::EdgeProfile;
use crate::profile::{LoadStrideProfile, StrideProfile};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use stride_ir::{Cfg, EdgeId, FuncId, InstrId, Module};

/// A profile-file parse failure, located to the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token (1 when it could not be
    /// located within the line).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile line {}, col {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ProfileParseError {}

impl ProfileParseError {
    /// Fills in `col` by locating the first backtick-quoted fragment of
    /// the message within the offending source line.
    fn locate_in(mut self, line_text: &str) -> Self {
        let fragment = self.message.split('`').nth(1).filter(|f| !f.is_empty());
        if let Some(fragment) = fragment {
            if let Some(byte_pos) = line_text.find(fragment) {
                self.col = line_text[..byte_pos].chars().count() + 1;
            }
        }
        self
    }

    /// Renders the error with the offending source line and a caret under
    /// the located column:
    ///
    /// ```text
    /// profile line 2, col 10: bad count `x9`
    ///     2 | e3 x9
    ///       |    ^
    /// ```
    ///
    /// `source` must be the text the profile was parsed from; if the line
    /// cannot be found, only the message itself is rendered.
    pub fn render(&self, source: &str) -> String {
        let mut out = self.to_string();
        if let Some(line_text) = source.lines().nth(self.line.saturating_sub(1)) {
            let gutter = format!("{:>5}", self.line);
            let _ = write!(out, "\n{gutter} | {line_text}");
            let pad: String = line_text
                .chars()
                .take(self.col.saturating_sub(1))
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            let _ = write!(out, "\n      | {pad}^");
        }
        out
    }
}

fn perr<T>(line: usize, message: impl Into<String>) -> Result<T, ProfileParseError> {
    Err(ProfileParseError {
        line,
        col: 1,
        message: message.into(),
    })
}

fn parse_tagged(s: &str, tag: &str, line: usize) -> Result<u64, ProfileParseError> {
    let Some(v) = s.strip_prefix(tag) else {
        return perr(line, format!("expected `{tag}` in `{s}`"));
    };
    v.parse().map_err(|_| ProfileParseError {
        line,
        col: 1,
        message: format!("bad number in `{s}`"),
    })
}

fn parse_id(s: &str, prefix: &str, line: usize) -> Result<u32, ProfileParseError> {
    let Some(v) = s.strip_prefix(prefix) else {
        return perr(line, format!("expected `{prefix}N` in `{s}`"));
    };
    v.parse().map_err(|_| ProfileParseError {
        line,
        col: 1,
        message: format!("bad id in `{s}`"),
    })
}

/// The header of a versioned profile section: how many records a v2 file
/// promises (`None` for v1 files, which carry no integrity count).
struct Header {
    declared: Option<u64>,
}

/// Parses `# <kind> profile vN [tag=M]` headers, accepting v1 (bare) and
/// v2 (with the integrity count). Returns `None` for other comments.
fn parse_header(
    line: &str,
    kind: &str,
    tag: &str,
    lineno: usize,
) -> Result<Option<Header>, ProfileParseError> {
    let Some(rest) = line.strip_prefix(&format!("# {kind} profile ")) else {
        return Ok(None);
    };
    let mut fields = rest.split_whitespace();
    let version = match fields.next() {
        Some("v1") => 1,
        Some("v2") => 2,
        Some(v) => return perr(lineno, format!("unsupported {kind} profile version `{v}`")),
        None => return perr(lineno, format!("missing {kind} profile version")),
    };
    let declared = match fields.next() {
        Some(field) if version >= 2 => Some(parse_tagged(field, &format!("{tag}="), lineno)?),
        Some(field) => return perr(lineno, format!("unexpected `{field}` in v1 header")),
        None if version >= 2 => return perr(lineno, format!("v2 header needs `{tag}=`")),
        None => None,
    };
    Ok(Some(Header { declared }))
}

/// Serializes an edge profile; only non-zero counters are listed.
pub fn edge_profile_to_text(profile: &EdgeProfile, module: &Module) -> String {
    let mut out = format!("# edge profile v2 funcs={}\n", module.functions.len());
    for func in &module.functions {
        let cfg = Cfg::compute(func);
        let n_counters = cfg.num_edges() + 1 + cfg.num_blocks();
        let _ = writeln!(out, "func {} counters={}", func.id, n_counters);
        for e in 0..n_counters {
            let c = profile.count(func.id, EdgeId::new(e as u32));
            if c != 0 {
                let _ = writeln!(out, "e{e} {c}");
            }
        }
    }
    out
}

/// Parses an edge profile written by [`edge_profile_to_text`] (v2, or the
/// count-less v1 format), validated against `module` (the counter spaces
/// must match, and a v2 header's `funcs=` count must be met).
///
/// # Errors
///
/// Returns a [`ProfileParseError`] on malformed text, a counter-space
/// mismatch with `module`, or a v2 integrity-count violation.
pub fn edge_profile_from_text(
    text: &str,
    module: &Module,
) -> Result<EdgeProfile, ProfileParseError> {
    let mut profile = EdgeProfile::for_module(module);
    let mut current: Option<(FuncId, usize)> = None;
    let mut declared: Option<u64> = None;
    let mut seen_funcs: u64 = 0;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        let step = |profile: &mut EdgeProfile,
                    current: &mut Option<(FuncId, usize)>,
                    declared: &mut Option<u64>,
                    seen_funcs: &mut u64|
         -> Result<(), ProfileParseError> {
            if let Some(header) = parse_header(line, "edge", "funcs", lineno)? {
                *declared = header.declared;
                return Ok(());
            }
            if line.is_empty() || line.starts_with('#') {
                return Ok(());
            }
            if let Some(rest) = line.strip_prefix("func ") {
                let (fid_s, counters_s) =
                    rest.split_once(' ').ok_or_else(|| ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: "malformed func line".into(),
                    })?;
                let fid = FuncId::new(parse_id(fid_s, "fn", lineno)?);
                let counters = parse_tagged(counters_s.trim(), "counters=", lineno)? as usize;
                let Some(func) = module.functions.get(fid.index()) else {
                    return perr(lineno, format!("module has no function `{fid}`"));
                };
                let cfg = Cfg::compute(func);
                let expected = cfg.num_edges() + 1 + cfg.num_blocks();
                if counters != expected {
                    return perr(
                        lineno,
                        format!(
                            "counter space mismatch for {fid}: file has {counters}, module needs {expected}"
                        ),
                    );
                }
                *current = Some((fid, counters));
                *seen_funcs += 1;
                return Ok(());
            }
            if line.starts_with('e') {
                let Some((fid, counters)) = *current else {
                    return perr(lineno, "counter before any `func` line");
                };
                let (e_s, c_s) = line.split_once(' ').ok_or_else(|| ProfileParseError {
                    line: lineno,
                    col: 1,
                    message: "malformed counter line".into(),
                })?;
                let e = parse_id(e_s, "e", lineno)? as usize;
                if e >= counters {
                    return perr(lineno, format!("counter `e{e}` out of range"));
                }
                let c: u64 = c_s.trim().parse().map_err(|_| ProfileParseError {
                    line: lineno,
                    col: 1,
                    message: format!("bad count `{c_s}`"),
                })?;
                profile.set(fid, EdgeId::new(e as u32), c);
                return Ok(());
            }
            perr(lineno, format!("unrecognized line `{line}`"))
        };
        step(&mut profile, &mut current, &mut declared, &mut seen_funcs)
            .map_err(|e| e.locate_in(raw))?;
    }
    if let Some(expected) = declared {
        if seen_funcs != expected {
            return perr(
                text.lines().count(),
                format!("truncated edge profile: header declares {expected} func(s), found {seen_funcs}"),
            );
        }
    }
    Ok(profile)
}

/// Serializes a stride profile.
pub fn stride_profile_to_text(profile: &StrideProfile) -> String {
    let mut entries: Vec<(FuncId, InstrId, &LoadStrideProfile)> = profile.iter().collect();
    entries.sort_by_key(|&(f, s, _)| (f, s));
    let mut out = format!("# stride profile v2 sites={}\n", entries.len());
    for (func, site, p) in entries {
        let top = p
            .top
            .iter()
            .map(|(s, c)| format!("{s}:{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            "site {func} {site} total={} zero={} zdiff={} diffs={} top={}",
            p.total_freq, p.num_zero_stride, p.num_zero_diff, p.total_diffs, top
        );
    }
    out
}

/// Most dense slots (function tables plus site slots up to the highest
/// site id of each function) a parsed stride profile may need. Site ids
/// index [`StrideProfile`]'s dense tables, so one short line could
/// otherwise ask for any size. A module reaches the daemon in one 16 MiB
/// wire frame, and each of its functions and instructions takes more than
/// 16 bytes of IR text (`    free r0    ; i0`), so no real profile needs
/// more than 1 Mi slots.
const MAX_SITE_SLOTS: usize = 1 << 20;

/// Parses a stride profile written by [`stride_profile_to_text`] (v2, or
/// the count-less v1 format).
///
/// # Errors
///
/// Returns a [`ProfileParseError`] on malformed text, a v2
/// integrity-count violation, or site ids that would take the profile
/// past [`MAX_SITE_SLOTS`] dense slots.
pub fn stride_profile_from_text(text: &str) -> Result<StrideProfile, ProfileParseError> {
    let mut profile = StrideProfile::new();
    let mut declared: Option<u64> = None;
    let mut seen_sites: u64 = 0;
    let mut slots: usize = 0;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        let step = |profile: &mut StrideProfile,
                    declared: &mut Option<u64>,
                    seen_sites: &mut u64,
                    slots: &mut usize|
         -> Result<(), ProfileParseError> {
            if let Some(header) = parse_header(line, "stride", "sites", lineno)? {
                *declared = header.declared;
                return Ok(());
            }
            if line.is_empty() || line.starts_with('#') {
                return Ok(());
            }
            let Some(rest) = line.strip_prefix("site ") else {
                return perr(lineno, format!("unrecognized line `{line}`"));
            };
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 7 {
                return perr(lineno, "site line needs 7 fields");
            }
            let func = FuncId::new(parse_id(fields[0], "fn", lineno)?);
            let site = InstrId::new(parse_id(fields[1], "i", lineno)?);
            *slots += profile.slots_to_insert(func, site);
            if *slots > MAX_SITE_SLOTS {
                return perr(
                    lineno,
                    format!(
                        "site `{}` takes the profile past {MAX_SITE_SLOTS} slots",
                        fields[1]
                    ),
                );
            }
            let total_freq = parse_tagged(fields[2], "total=", lineno)?;
            let num_zero_stride = parse_tagged(fields[3], "zero=", lineno)?;
            let num_zero_diff = parse_tagged(fields[4], "zdiff=", lineno)?;
            let total_diffs = parse_tagged(fields[5], "diffs=", lineno)?;
            let top_s = fields[6]
                .strip_prefix("top=")
                .ok_or_else(|| ProfileParseError {
                    line: lineno,
                    col: 1,
                    message: "missing top=".into(),
                })?;
            let mut top = Vec::new();
            if !top_s.is_empty() {
                for pair in top_s.split(',') {
                    let (s, c) = pair.split_once(':').ok_or_else(|| ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad top entry `{pair}`"),
                    })?;
                    let stride: i64 = s.parse().map_err(|_| ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad stride `{s}`"),
                    })?;
                    let count: u64 = c.parse().map_err(|_| ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad count `{c}`"),
                    })?;
                    top.push((stride, count));
                }
            }
            profile.insert(
                func,
                site,
                LoadStrideProfile {
                    top,
                    total_freq,
                    num_zero_stride,
                    num_zero_diff,
                    total_diffs,
                },
            );
            *seen_sites += 1;
            Ok(())
        };
        step(&mut profile, &mut declared, &mut seen_sites, &mut slots)
            .map_err(|e| e.locate_in(raw))?;
    }
    if let Some(expected) = declared {
        if seen_sites != expected {
            return perr(
                text.lines().count(),
                format!(
                    "truncated stride profile: header declares {expected} site(s), found {seen_sites}"
                ),
            );
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{ModuleBuilder, Operand};

    fn small_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 1);
        let mut fb = mb.function(f);
        let p = fb.mov(fb.param(0));
        fb.while_nonzero(p, |fb, p| {
            fb.load_to(p, p, 0);
        });
        fb.ret(Some(Operand::Imm(0)));
        mb.set_entry(f);
        mb.finish()
    }

    #[test]
    fn edge_profile_round_trips() {
        let m = small_module();
        let mut p = EdgeProfile::for_module(&m);
        let f = m.entry;
        p.increment(f, EdgeId::new(0));
        for _ in 0..999 {
            p.increment(f, EdgeId::new(2));
        }
        let text = edge_profile_to_text(&p, &m);
        assert!(text.starts_with("# edge profile v2 funcs=1\n"));
        let q = edge_profile_from_text(&text, &m).expect("parses");
        let cfg = Cfg::compute(m.function(f));
        let n = cfg.num_edges() + 1 + cfg.num_blocks();
        for e in 0..n {
            assert_eq!(
                p.count(f, EdgeId::new(e as u32)),
                q.count(f, EdgeId::new(e as u32)),
                "counter e{e} differs"
            );
        }
    }

    #[test]
    fn stride_profile_round_trips() {
        let mut p = StrideProfile::new();
        p.insert(
            FuncId::new(0),
            InstrId::new(7),
            LoadStrideProfile {
                top: vec![(64, 900), (-48, 55)],
                total_freq: 1000,
                num_zero_stride: 12,
                num_zero_diff: 850,
                total_diffs: 999,
            },
        );
        p.insert(
            FuncId::new(2),
            InstrId::new(0),
            LoadStrideProfile {
                top: vec![],
                total_freq: 0,
                num_zero_stride: 5,
                num_zero_diff: 0,
                total_diffs: 0,
            },
        );
        let text = stride_profile_to_text(&p);
        assert!(text.starts_with("# stride profile v2 sites=2\n"));
        let q = stride_profile_from_text(&text).expect("parses");
        assert_eq!(stride_profile_to_text(&q), text);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.get(FuncId::new(0), InstrId::new(7)),
            p.get(FuncId::new(0), InstrId::new(7))
        );
        assert_eq!(
            q.get(FuncId::new(2), InstrId::new(0)),
            p.get(FuncId::new(2), InstrId::new(0))
        );
    }

    /// `site fn0 i4000000000` once asked the dense tables for about
    /// 224 GB, which aborts the process; it is now a located error.
    #[test]
    fn site_ids_past_the_slot_bound_are_rejected() {
        let src = "# stride profile v2 sites=1\n\
                   site fn0 i4000000000 total=1 zero=0 zdiff=0 diffs=0 top=8:1\n";
        let e = stride_profile_from_text(src).unwrap_err();
        assert_eq!((e.line, e.col), (2, 10), "{e}");
        let src = "site fn4000000000 i0 total=1 zero=0 zdiff=0 diffs=0 top=8:1\n";
        let e = stride_profile_from_text(src).unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        // The bound covers the whole profile, not each function.
        let half = MAX_SITE_SLOTS / 2;
        let src = format!(
            "site fn0 i{half} total=1 zero=0 zdiff=0 diffs=0 top=8:1\n\
             site fn1 i{half} total=1 zero=0 zdiff=0 diffs=0 top=8:1\n"
        );
        let e = stride_profile_from_text(&src).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn v1_files_without_counts_still_parse() {
        let m = small_module();
        let edge = "# edge profile v1\nfunc fn0 counters=9\ne0 7\n";
        // (small_module has 9 counters: edges + 1 virtual + blocks)
        let p = edge_profile_from_text(edge, &m).expect("v1 edge parses");
        assert_eq!(p.count(m.entry, EdgeId::new(0)), 7);
        let stride = "# stride profile v1\nsite fn0 i1 total=5 zero=0 zdiff=4 diffs=4 top=64:5\n";
        let q = stride_profile_from_text(stride).expect("v1 stride parses");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn truncated_v2_files_are_rejected() {
        let m = small_module();
        let e = edge_profile_from_text("# edge profile v2 funcs=2\nfunc fn0 counters=9\n", &m)
            .unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
        let e = stride_profile_from_text("# stride profile v2 sites=3\n").unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let e = stride_profile_from_text("# stride profile v9 sites=0\n").unwrap_err();
        assert!(e.message.contains("unsupported"), "{e}");
    }

    #[test]
    fn counter_space_mismatch_is_rejected() {
        let m = small_module();
        let text = "# edge profile v1\nfunc fn0 counters=3\n";
        let e = edge_profile_from_text(text, &m).unwrap_err();
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn malformed_lines_report_position() {
        let e = stride_profile_from_text("# stride profile v1\nnot a site line\n").unwrap_err();
        assert_eq!(e.line, 2);
        let m = small_module();
        let e = edge_profile_from_text("wat\n", &m).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn errors_locate_the_offending_token() {
        let src = "# stride profile v1\nsite fn0 i1 total=5 zero=0 zdiff=4 diffs=4 top=64:xx\n";
        let e = stride_profile_from_text(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.col > 1, "col located: {e:?}");
        let rendered = e.render(src);
        assert!(rendered.contains("    2 | site fn0"), "{rendered}");
        let caret_line = rendered.lines().last().unwrap();
        assert_eq!(
            caret_line.chars().filter(|&c| c == '^').count(),
            1,
            "{rendered}"
        );
        // The caret must sit under the offending token.
        let line_text = src.lines().nth(1).unwrap();
        let caret_col = caret_line.chars().count() - "      | ".len();
        let token_col = line_text.find("xx").unwrap() + 1;
        assert_eq!(caret_col, token_col, "{rendered}");
    }

    #[test]
    fn bad_count_column_points_at_number() {
        let m = small_module();
        let src = "# edge profile v1\nfunc fn0 counters=9\ne0 x9\n";
        let e = edge_profile_from_text(src, &m).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.col, 4, "{e:?}");
    }
}
