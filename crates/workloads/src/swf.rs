//! [Standard Workload Format](https://www.cs.huji.ac.il/labs/parallel/workload/swf.html)
//! (SWF) trace ingestion.
//!
//! SWF is the archive format of the Parallel Workloads Archive: `;`-prefixed
//! header directives (`; MaxNodes: 1428`) followed by one job per line with
//! **18 whitespace-separated numeric fields**, where `-1` marks an unknown
//! value. The parser is built around [`SwfReader`], a streaming iterator
//! over job lines: header directives accumulate incrementally as they are
//! encountered, the line buffer is reused, and nothing proportional to the
//! file size is ever materialized — which is what lets million-job archive
//! replays parse in one pass at constant overhead. The eager API
//! ([`SwfTrace::parse`], [`load_trace`]) is a thin `collect()` wrapper over
//! the same reader, byte-identical in output and error text.
//!
//! **One line parser.** Every path above ends in `parse_job_line`, and a
//! job line costs it no heap traffic: the 18 tokens land in an array on the
//! stack, and a field spelled `[+-]?[0-9]{1,18}` — nearly every field of
//! every archive line — is read in the one pass that checks it. Whatever
//! else a field holds (`3600.0`, `3600.`, `nan`, `1e3`, a 19th digit, a
//! byte that is not ASCII) takes the general route, which alone decides
//! what is a number and words the error. A faster scanner is welcome only
//! as a replacement for that function, never as a second parser in front
//! of it; the collecting parser it replaced survives under `#[cfg(test)]`
//! as the oracle of a differential property test.
//!
//! Conversion to simulator-ready [`JobSpec`]s follows the same discipline
//! as the Polaris pipeline (paper §5): drop failed/cancelled jobs, sort by
//! submission, normalize timestamps to the earliest submission, factorize
//! user/group labels, and derive memory where the trace does not record it.
//! The sort orders 24-byte `(submit, job_id, row index)` keys, not the
//! 144-byte rows, which are read through the keys once.
//!
//! The scenario registry resolves `swf:<path>` names through
//! [`load_workload`], so any archive trace sweeps through the experiment
//! harness by name alone — now end-to-end streaming: unusable rows are
//! discarded as they are read and never buffered.

use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};

use rsched_cluster::{ClusterConfig, JobSpec, ResourceVec};
use rsched_simkit::{SimDuration, SimTime};

use crate::arrivals::ArrivalMode;
use crate::error::WorkloadError;
use crate::registry::ScenarioContext;
use crate::scenarios::Workload;
use crate::trace::Factorizer;

/// Fields per SWF job line.
pub const SWF_FIELD_COUNT: usize = 18;

/// Memory ascribed to each processor when the trace records none
/// (`used_memory_kb == -1`), in GB.
pub const DEFAULT_GB_PER_PROC: u64 = 2;

/// One job line of an SWF trace, fields in archive order. `-1` means
/// "unknown" throughout (field 6, average CPU time, is kept as `f64`; the
/// archive allows fractional seconds there).
#[derive(Debug, Clone, PartialEq)]
pub struct SwfJob {
    /// 1 — job number.
    pub job_id: i64,
    /// 2 — submit time, seconds since trace start.
    pub submit_secs: i64,
    /// 3 — wait time in the queue, seconds.
    pub wait_secs: i64,
    /// 4 — actual run time, seconds.
    pub run_secs: i64,
    /// 5 — number of allocated processors.
    pub allocated_procs: i64,
    /// 6 — average CPU time used, seconds.
    pub avg_cpu_secs: f64,
    /// 7 — used memory, KB per processor.
    pub used_memory_kb: i64,
    /// 8 — requested processors.
    pub requested_procs: i64,
    /// 9 — requested time (walltime estimate), seconds.
    pub requested_secs: i64,
    /// 10 — requested memory, KB per processor.
    pub requested_memory_kb: i64,
    /// 11 — completion status: 1 completed, 0 failed, 5 cancelled.
    pub status: i64,
    /// 12 — user id.
    pub user: i64,
    /// 13 — group id.
    pub group: i64,
    /// 14 — executable (application) number.
    pub executable: i64,
    /// 15 — queue number.
    pub queue: i64,
    /// 16 — partition number.
    pub partition: i64,
    /// 17 — preceding job number (workflow dependency).
    pub preceding_job: i64,
    /// 18 — think time from preceding job, seconds.
    pub think_secs: i64,
}

impl SwfJob {
    /// The processor count to schedule with: allocated if known, else
    /// requested; `None` if the trace records neither. A count past
    /// `u32::MAX` saturates there — wider than any machine, so the
    /// simulator's `validate_workload` refuses the job as what it is
    /// instead of running the few nodes a truncated count would name.
    pub fn procs(&self) -> Option<u32> {
        [self.allocated_procs, self.requested_procs]
            .into_iter()
            .find(|&p| p > 0)
            .map(saturate_u32)
    }

    /// The runtime to simulate with: actual if known, else requested;
    /// `None` if the trace records neither.
    pub fn runtime_secs(&self) -> Option<u64> {
        [self.run_secs, self.requested_secs]
            .into_iter()
            .find(|&r| r > 0)
            .map(|r| r as u64)
    }

    /// The per-node demand recorded by the trace. Requested memory (field
    /// 10, KB per processor) — falling back to used memory — becomes the
    /// per-node memory demand, and surplus *requested* processors beyond
    /// the scheduled node count become a per-node CPU-core demand
    /// (multi-core nodes packing several ranks per node). Dimensions the
    /// trace does not record (`-1`) stay zero, so flat machines and traces
    /// without the optional fields behave exactly as before.
    pub fn per_node_demand(&self) -> ResourceVec {
        let mut demand = ResourceVec::ZERO;
        if let Some(kb) = [self.requested_memory_kb, self.used_memory_kb]
            .into_iter()
            .find(|&m| m > 0)
        {
            demand.memory_gb = (kb as u64).div_ceil(1024 * 1024).max(1);
        }
        if let Some(nodes) = self.procs() {
            if self.requested_procs > 0 {
                let requested = saturate_u32(self.requested_procs);
                if requested > nodes {
                    demand.cpus = requested.div_ceil(nodes);
                }
            }
        }
        demand
    }

    /// `true` for jobs the conversion keeps: not failed (status 0), not
    /// cancelled (status 5), with a usable runtime and processor count.
    pub fn is_usable(&self) -> bool {
        self.status != 0
            && self.status != 5
            && self.procs().is_some()
            && self.runtime_secs().is_some()
    }
}

/// A positive processor count as a `u32`, saturating.
fn saturate_u32(procs: i64) -> u32 {
    u32::try_from(procs).unwrap_or(u32::MAX)
}

/// A parsed SWF trace: the header directives plus the job lines, in file
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwfTrace {
    /// `(key, value)` header directives in file order (e.g.
    /// `("MaxNodes", "1428")`). Comment lines without a `:` are skipped.
    pub directives: Vec<(String, String)>,
    /// The job lines, in file order (SWF traces are usually but not always
    /// submit-sorted).
    pub jobs: Vec<SwfJob>,
}

impl SwfTrace {
    /// Parse SWF text. Header directives may appear anywhere; every
    /// non-comment, non-blank line must carry exactly
    /// [`SWF_FIELD_COUNT`] numeric fields.
    ///
    /// This is a thin `collect()` over [`SwfReader`]; output and error
    /// text are identical to streaming the same bytes.
    pub fn parse(text: &str) -> Result<SwfTrace, WorkloadError> {
        let mut reader = SwfReader::from_text(text);
        let mut jobs = Vec::new();
        for job in &mut reader {
            jobs.push(job?);
        }
        Ok(SwfTrace {
            directives: reader.into_directives(),
            jobs,
        })
    }

    /// The value of a header directive, matched case-insensitively.
    pub fn directive(&self, key: &str) -> Option<&str> {
        self.directives
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// The machine size from the `MaxNodes` (preferred) or `MaxProcs`
    /// directive, if present and numeric.
    pub fn max_nodes(&self) -> Option<u32> {
        ["MaxNodes", "MaxProcs"]
            .into_iter()
            .find_map(|key| self.directive(key))
            .and_then(|v| v.trim().parse().ok())
    }

    /// A cluster sized to this trace: node count from the header (falling
    /// back to the widest job), memory assuming [`DEFAULT_GB_PER_PROC`] per
    /// node.
    pub fn cluster(&self) -> ClusterConfig {
        let widest = self
            .jobs
            .iter()
            .filter_map(SwfJob::procs)
            .max()
            .unwrap_or(1);
        let nodes = self.max_nodes().unwrap_or(widest).max(widest).max(1);
        let gb_per_node = DEFAULT_GB_PER_PROC.max(mem_ceil_gb(self));
        ClusterConfig::new(nodes, (nodes as u64).saturating_mul(gb_per_node))
    }

    /// Convert to simulator-ready jobs, Polaris-pipeline style: keep
    /// [usable](SwfJob::is_usable) jobs, sort by `(submit, job_id)`, take at
    /// most `limit` (0 = all), normalize submissions to the earliest kept
    /// job, re-identify sequentially, and factorize users/groups in
    /// first-appearance order.
    ///
    /// Aggregate memory per job is `used_memory_kb × procs` — falling back
    /// to `requested_memory_kb × procs` — rounded up to whole GB, or
    /// `procs ×` [`DEFAULT_GB_PER_PROC`] when the trace records neither.
    /// The recorded per-node demand (requested memory, surplus requested
    /// processors) rides along as [`SwfJob::per_node_demand`].
    pub fn to_jobs(&self, limit: usize) -> Vec<JobSpec> {
        convert_usable(&self.jobs, limit)
    }
}

/// Convert an arbitrary stream of raw rows to simulator-ready jobs via
/// the same core as [`SwfTrace::to_jobs`]: unusable rows are dropped as
/// they stream past, then the survivors are sorted, truncated to `limit`
/// (0 = all), normalized, and factorized. Lets synthetic row generators
/// (`rsched_workloads::synth`) share the exact SWF conversion semantics.
pub fn jobs_from_rows(rows: impl IntoIterator<Item = SwfJob>, limit: usize) -> Vec<JobSpec> {
    let usable: Vec<SwfJob> = rows.into_iter().filter(SwfJob::is_usable).collect();
    convert_usable(&usable, limit)
}

/// The shared conversion core behind [`SwfTrace::to_jobs`],
/// [`SwfReader::into_jobs`] and [`jobs_from_rows`]: picks the usable rows
/// out of `rows` (file order), orders, truncates, normalizes and
/// factorizes. Every entry point produces bit-identical output because
/// they all land here.
///
/// The order is `(submit, job_id)` with file order breaking ties — a stable
/// sort of the rows, done on 24-byte `(submit, job_id, row index)` keys
/// (the index makes `sort_unstable` stable); the 144-byte rows stay where
/// they are and are read through the keys once.
fn convert_usable(rows: &[SwfJob], limit: usize) -> Vec<JobSpec> {
    let mut keys: Vec<(i64, i64, usize)> = rows
        .iter()
        .enumerate()
        .filter(|(_, j)| j.is_usable())
        .map(|(at, j)| (j.submit_secs, j.job_id, at))
        .collect();
    keys.sort_unstable();
    if limit > 0 {
        keys.truncate(limit);
    }
    let Some(&(origin, _, _)) = keys.first() else {
        return Vec::new();
    };
    let mut users = Factorizer::new();
    let mut groups = Factorizer::new();
    keys.iter()
        .enumerate()
        .map(|(i, &(_, _, at))| {
            let j = &rows[at];
            let procs = j.procs().expect("usable");
            let runtime = j.runtime_secs().expect("usable").max(1);
            // Aggregate memory prefers *used* (what actually happened);
            // the per-node demand prefers *requested* (what the user
            // asked the scheduler for).
            let memory_gb = if let Some(kb) = [j.used_memory_kb, j.requested_memory_kb]
                .into_iter()
                .find(|&m| m > 0)
            {
                (kb as u64)
                    .saturating_mul(procs as u64)
                    .div_ceil(1024 * 1024)
                    .max(1)
            } else {
                procs as u64 * DEFAULT_GB_PER_PROC
            };
            // Archive traces record overruns (run > requested, killed
            // late); pad to the actual runtime so schedulers never see
            // a job outlive its declared walltime, as in the Polaris
            // pipeline.
            let walltime = (j.requested_secs.max(0) as u64).max(runtime);
            JobSpec::new(
                i as u32,
                users.id(&j.user),
                SimTime::from_secs(j.submit_secs.saturating_sub(origin).max(0) as u64),
                SimDuration::from_secs(runtime),
                procs,
                memory_gb,
            )
            .with_group(groups.id(&j.group))
            .with_walltime(SimDuration::from_secs(walltime))
            .with_per_node(j.per_node_demand())
        })
        .collect()
}

/// Streaming SWF line parser: an `Iterator<Item = Result<SwfJob,
/// WorkloadError>>` over the job lines of a trace.
///
/// Header directives (`; Key: value`) accumulate incrementally in
/// [`directives`](Self::directives) as the stream advances; comments and
/// blank lines are skipped; the internal line buffer is reused, so memory
/// stays constant regardless of trace size. After the first error the
/// iterator is fused (subsequent `next()` returns `None`) — a malformed
/// line poisons the rest of the stream exactly as it aborts an eager
/// parse.
///
/// ```
/// use rsched_workloads::swf::SwfReader;
///
/// let text = "; MaxNodes: 8\n1 0 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 1 -1 -1\n";
/// let jobs: Result<Vec<_>, _> = SwfReader::from_text(text).collect();
/// assert_eq!(jobs.unwrap().len(), 1);
/// ```
#[derive(Debug)]
pub struct SwfReader<R> {
    input: R,
    /// Optional source label (a file path) anchoring error locations as
    /// `"{path}: line N"`, matching [`load_trace`].
    source: Option<String>,
    line_no: usize,
    directives: Vec<(String, String)>,
    buf: String,
    done: bool,
}

impl SwfReader<BufReader<File>> {
    /// Stream a trace from a file. Parse errors are anchored to `path`
    /// (`"{path}: line N"`), exactly as [`load_trace`] reports them.
    pub fn open(path: &str) -> Result<Self, WorkloadError> {
        let file = File::open(path).map_err(|e| WorkloadError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        Ok(SwfReader::new(BufReader::new(file)).with_source(path))
    }
}

impl<'a> SwfReader<&'a [u8]> {
    /// Stream a trace from in-memory text.
    pub fn from_text(text: &'a str) -> Self {
        SwfReader::new(text.as_bytes())
    }
}

impl<R: BufRead> SwfReader<R> {
    /// Stream a trace from any buffered reader.
    pub fn new(input: R) -> Self {
        SwfReader {
            input,
            source: None,
            line_no: 0,
            directives: Vec::new(),
            buf: String::new(),
            done: false,
        }
    }

    /// Anchor error locations to a source label (usually a file path).
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// The 1-based number of the last line read (0 before the first).
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Header directives seen **so far**, in file order. Complete only
    /// once the iterator is exhausted (directives may appear anywhere).
    pub fn directives(&self) -> &[(String, String)] {
        &self.directives
    }

    /// Consume the reader, returning the directives seen so far.
    pub fn into_directives(self) -> Vec<(String, String)> {
        self.directives
    }

    /// The value of a directive seen so far, matched case-insensitively.
    pub fn directive(&self, key: &str) -> Option<&str> {
        self.directives
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Stream-convert to simulator-ready jobs: unusable rows (failed,
    /// cancelled, no runtime/procs) are dropped as they are read and
    /// never buffered, then the kept rows go through the same
    /// sort/normalize/factorize core as [`SwfTrace::to_jobs`] —
    /// bit-identical output, without materializing the raw trace.
    pub fn into_jobs(mut self, limit: usize) -> Result<Vec<JobSpec>, WorkloadError> {
        let mut usable: Vec<SwfJob> = Vec::new();
        for job in &mut self {
            let job = job?;
            if job.is_usable() {
                usable.push(job);
            }
        }
        Ok(convert_usable(&usable, limit))
    }

    fn anchor(&self, err: WorkloadError) -> WorkloadError {
        match (&self.source, err) {
            (Some(path), WorkloadError::Parse { location, message }) => WorkloadError::Parse {
                location: format!("{path}: {location}"),
                message,
            },
            (_, other) => other,
        }
    }
}

impl<R: BufRead> Iterator for SwfReader<R> {
    type Item = Result<SwfJob, WorkloadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            match self.input.read_line(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(WorkloadError::Io {
                        path: self
                            .source
                            .clone()
                            .unwrap_or_else(|| "<swf stream>".to_string()),
                        message: e.to_string(),
                    }));
                }
            }
            self.line_no += 1;
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(';') {
                // `; Key: value` is a directive; anything else is comment.
                if let Some((key, value)) = rest.split_once(':') {
                    let key = key.trim();
                    if !key.is_empty() && !key.contains(char::is_whitespace) {
                        self.directives
                            .push((key.to_string(), value.trim().to_string()));
                    }
                }
                continue;
            }
            let parsed = parse_job_line(line, self.line_no);
            return match parsed {
                Ok(job) => Some(Ok(job)),
                Err(e) => {
                    self.done = true;
                    Some(Err(self.anchor(e)))
                }
            };
        }
    }
}

impl fmt::Display for SwfTrace {
    /// Re-export in SWF text form: directives first, then one 18-field line
    /// per job. `SwfTrace::parse` of the output reproduces the trace.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, value) in &self.directives {
            writeln!(f, "; {key}: {value}")?;
        }
        for j in &self.jobs {
            writeln!(
                f,
                "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                j.job_id,
                j.submit_secs,
                j.wait_secs,
                j.run_secs,
                j.allocated_procs,
                j.avg_cpu_secs,
                j.used_memory_kb,
                j.requested_procs,
                j.requested_secs,
                j.requested_memory_kb,
                j.status,
                j.user,
                j.group,
                j.executable,
                j.queue,
                j.partition,
                j.preceding_job,
                j.think_secs
            )?;
        }
        Ok(())
    }
}

fn parse_job_line(line: &str, line_no: usize) -> Result<SwfJob, WorkloadError> {
    // The tokens land on the stack; the ones past the 18th are only counted,
    // for the error text.
    let mut fields = [""; SWF_FIELD_COUNT];
    let mut found = 0usize;
    for token in line.split_whitespace() {
        if let Some(slot) = fields.get_mut(found) {
            *slot = token;
        }
        found += 1;
    }
    if found != SWF_FIELD_COUNT {
        return Err(WorkloadError::Parse {
            location: format!("line {line_no}"),
            message: format!("expected {SWF_FIELD_COUNT} fields, found {found}"),
        });
    }
    let bad = |idx: usize| WorkloadError::Parse {
        location: format!("line {line_no}, field {}", idx + 1),
        message: format!("`{}` is not a number", fields[idx]),
    };
    let int = |idx: usize| -> Result<i64, WorkloadError> {
        let raw = fields[idx];
        // What nearly every field of every archive line is: a sign and at
        // most 18 digits, read in the one pass that checks them.
        if let Some(value) = plain_int(raw) {
            return Ok(value);
        }
        // The archive occasionally writes integral fields as floats
        // ("3600.0"); accept those but reject anything that is not a
        // *complete* decimal token — `nan`/`inf`, exponent forms, values
        // outside the i64 range, and the truncated tails EOF-cut files
        // produce ("3600." for "3600.25").
        if !is_complete_decimal(raw) {
            return Err(bad(idx));
        }
        raw.parse::<i64>()
            .ok()
            .or_else(|| {
                raw.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(v))
                    .map(|v| v as i64)
            })
            .ok_or_else(|| bad(idx))
    };
    let float = |idx: usize| -> Result<f64, WorkloadError> {
        let raw = fields[idx];
        if !is_complete_decimal(raw) {
            return Err(bad(idx));
        }
        raw.parse::<f64>().map_err(|_| bad(idx))
    };
    Ok(SwfJob {
        job_id: int(0)?,
        submit_secs: int(1)?,
        wait_secs: int(2)?,
        run_secs: int(3)?,
        allocated_procs: int(4)?,
        avg_cpu_secs: float(5)?,
        used_memory_kb: int(6)?,
        requested_procs: int(7)?,
        requested_secs: int(8)?,
        requested_memory_kb: int(9)?,
        status: int(10)?,
        user: int(11)?,
        group: int(12)?,
        executable: int(13)?,
        queue: int(14)?,
        partition: int(15)?,
        preceding_job: int(16)?,
        think_secs: int(17)?,
    })
}

/// `[+-]?[0-9]{1,18}` as the integer it spells — 18 digits cannot overflow
/// an `i64`, so there is nothing to check but the bytes. Every other token
/// (a 19th digit, a `.`, a letter, a lone sign) is `None` and takes the
/// general route, which rules on it and words the error.
fn plain_int(raw: &str) -> Option<i64> {
    let (negative, digits) = match raw.as_bytes() {
        [b'-', digits @ ..] => (true, digits),
        [b'+', digits @ ..] => (false, digits),
        digits => (false, digits),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut value = 0i64;
    for &byte in digits {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value * 10 + i64::from(digit);
    }
    Some(if negative { -value } else { value })
}

/// A complete decimal token: optional sign, one or more digits, optionally
/// a `.` followed by one or more digits. Rejects `nan`/`inf`, exponent
/// notation, and truncated tails (`"3600."`, `"-"`, `".5"`) uniformly —
/// an EOF-cut final field now fails with a `line N` error like any other
/// malformed token, instead of slipping through the float fallback.
fn is_complete_decimal(raw: &str) -> bool {
    let digits = raw.strip_prefix(['+', '-']).unwrap_or(raw);
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    match digits.split_once('.') {
        Some((int_part, frac)) => all_digits(int_part) && all_digits(frac),
        None => all_digits(digits),
    }
}

/// Parse an SWF trace from text (see [`SwfTrace::parse`]).
pub fn parse_trace(text: &str) -> Result<SwfTrace, WorkloadError> {
    SwfTrace::parse(text)
}

/// Read and parse an SWF trace from a file — a `collect()` over
/// [`SwfReader::open`], so the file streams through a reused line buffer
/// instead of being materialized as one string. Parse locations are
/// anchored to the file (`"{path}: line N"`) for multi-trace sweeps.
pub fn load_trace(path: &str) -> Result<SwfTrace, WorkloadError> {
    let mut reader = SwfReader::open(path)?;
    let mut jobs = Vec::new();
    for job in &mut reader {
        jobs.push(job?);
    }
    Ok(SwfTrace {
        directives: reader.into_directives(),
        jobs,
    })
}

/// The `swf:<path>` entry point used by the scenario registry: load the
/// trace at `path` and convert at most `ctx.n` jobs (`0` = the whole
/// trace). [`ArrivalMode::Static`] zeroes submissions; the context's seed
/// is recorded but unused (trace replay is deterministic).
///
/// End-to-end streaming: unusable rows are dropped as they are read, so
/// peak memory is proportional to the *kept* jobs, not the file.
pub fn load_workload(path: &str, ctx: &ScenarioContext) -> Result<Workload, WorkloadError> {
    let mut jobs = SwfReader::open(path)?.into_jobs(ctx.n)?;
    if ctx.mode == ArrivalMode::Static {
        for j in &mut jobs {
            j.submit = SimTime::ZERO;
        }
    }
    Ok(Workload {
        scenario: format!("swf:{path}"),
        jobs,
        mode: ctx.mode,
        seed: ctx.seed,
    })
}

/// The largest per-job memory in the trace, in whole GB per processor —
/// used to size a derived cluster so every job fits.
fn mem_ceil_gb(trace: &SwfTrace) -> u64 {
    trace
        .jobs
        .iter()
        .filter(|j| j.used_memory_kb > 0)
        .map(|j| (j.used_memory_kb as u64).div_ceil(1024 * 1024))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: Example Machine
; MaxNodes: 64
; UnixStartTime: 1100000000
; this free-form comment line is ignored
1 100 10 300 4 -1 1048576 4 600 -1 1 3 1 -1 1 1 -1 -1
2 160 -1 120 2 -1 -1 2 240 -1 1 5 1 -1 1 1 -1 -1
3 40 0 60 1 -1 -1 1 60 -1 0 3 1 -1 1 1 -1 -1
4 220 5 -1 8 -1 -1 8 900 -1 5 7 2 -1 1 1 -1 -1
5 90 2 450 16 -1 2097152 16 600 -1 1 5 1 -1 1 1 -1 -1
6 300 1 500 4 -1 -1 8 800 2097152 1 3 1 -1 1 1 -1 -1
7 360 0 200 2 -1 1048576 2 400 -1 1 5 1 -1 1 1 -1 -1
";

    #[test]
    fn header_directives_parse_case_insensitively() {
        let trace = parse_trace(SAMPLE).expect("parses");
        assert_eq!(trace.directive("maxnodes"), Some("64"));
        assert_eq!(trace.directive("Computer"), Some("Example Machine"));
        assert_eq!(trace.directive("UNIXSTARTTIME"), Some("1100000000"));
        assert_eq!(trace.max_nodes(), Some(64));
        assert_eq!(trace.jobs.len(), 7);
    }

    #[test]
    fn sentinel_fields_survive_and_fallbacks_apply() {
        let trace = parse_trace(SAMPLE).expect("parses");
        // Job 2 has -1 wait and no memory record.
        let j2 = &trace.jobs[1];
        assert_eq!(j2.wait_secs, -1);
        assert_eq!(j2.used_memory_kb, -1);
        assert_eq!(j2.procs(), Some(2));
        // Job 4 has -1 runtime but a requested time; cancelled, so unusable
        // anyway.
        let j4 = &trace.jobs[3];
        assert_eq!(j4.run_secs, -1);
        assert_eq!(j4.runtime_secs(), Some(900));
        assert!(!j4.is_usable(), "cancelled jobs are dropped");
    }

    #[test]
    fn conversion_drops_failed_sorts_and_normalizes() {
        let trace = parse_trace(SAMPLE).expect("parses");
        // Job 3 failed (status 0), job 4 cancelled (status 5) → 5 remain.
        let jobs = trace.to_jobs(0);
        assert_eq!(jobs.len(), 5);
        // Sorted by submit: job 5 (t=90) first, normalized to zero.
        assert_eq!(jobs[0].submit, SimTime::ZERO);
        assert_eq!(jobs[0].nodes, 16);
        assert_eq!(jobs[1].submit, SimTime::from_secs(10)); // 100 - 90
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i, "re-identified sequentially");
        }
        // Users factorized in first-appearance order: 5 → 0, 3 → 1.
        assert_eq!(jobs[0].user.0, 0);
        assert_eq!(jobs[1].user.0, 1);
        // Memory: job 5 records 2 GB/proc × 16 procs = 32 GB; job 2 records
        // none → DEFAULT_GB_PER_PROC × 2.
        assert_eq!(jobs[0].memory_gb, 32);
        assert_eq!(jobs[2].memory_gb, 2 * DEFAULT_GB_PER_PROC);
        // Walltime comes from the requested time.
        assert_eq!(jobs[0].walltime, SimDuration::from_secs(600));
    }

    #[test]
    fn submit_times_a_whole_i64_apart_saturate() {
        // `is_usable` does not look at the submit field.
        let text = format!(
            "1 {} 0 60 1 -1 -1 1 60 -1 1 3 1 -1 1 1 -1 -1\n\
             2 1 0 60 1 -1 -1 1 60 -1 1 3 1 -1 1 1 -1 -1\n",
            i64::MIN
        );
        let jobs = parse_trace(&text).expect("parses").to_jobs(0);
        assert_eq!(jobs[0].submit, SimTime::ZERO);
        assert_eq!(jobs[1].submit, SimTime::from_secs(i64::MAX as u64));
    }

    #[test]
    fn per_node_demand_maps_requested_fields_with_sentinel_fallbacks() {
        let trace = parse_trace(SAMPLE).expect("parses");
        let jobs = trace.to_jobs(0);
        // Job 6: 8 requested processors packed onto 4 allocated nodes → 2
        // cores per node; requested memory (2 GB per processor) becomes
        // both the per-node demand and — with no used-memory record — the
        // aggregate.
        let j6 = &jobs[3];
        assert_eq!(j6.nodes, 4);
        assert_eq!(j6.per_node, ResourceVec::new(2, 0, 2, 0));
        assert_eq!(j6.memory_gb, 8);
        // Job 7: requested memory is a -1 sentinel → per-node demand falls
        // back to used memory; requested == allocated → no core demand.
        let j7 = &jobs[4];
        assert_eq!(j7.per_node, ResourceVec::new(0, 0, 1, 0));
        assert_eq!(j7.memory_gb, 2);
        // Job 2 records neither memory field → no per-node demand at all.
        assert!(jobs[2].per_node.is_zero());
        assert_eq!(jobs[2].memory_gb, 2 * DEFAULT_GB_PER_PROC);
    }

    #[test]
    fn limit_truncates_after_sorting() {
        let trace = parse_trace(SAMPLE).expect("parses");
        let jobs = trace.to_jobs(2);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].nodes, 16, "earliest submit survives the cut");
    }

    #[test]
    fn malformed_lines_report_location() {
        let err = parse_trace("1 2 3\n").unwrap_err();
        match &err {
            WorkloadError::Parse { location, message } => {
                assert_eq!(location, "line 1");
                assert!(message.contains("18 fields"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }

        let bad_token = SAMPLE.replace("5 90 2 450", "5 90 2 banana");
        let err = parse_trace(&bad_token).unwrap_err();
        match &err {
            WorkloadError::Parse { location, message } => {
                assert!(location.contains("field 4"), "{location}");
                assert!(message.contains("banana"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_finite_and_out_of_range_numbers_are_rejected() {
        for bad in ["nan", "inf", "-inf", "1e300"] {
            let line = format!("1 0 0 100 4 -1 -1 4 200 -1 {bad} 1 1 -1 1 1 -1 -1\n");
            let err = parse_trace(&line).unwrap_err();
            match &err {
                WorkloadError::Parse { location, message } => {
                    assert!(location.contains("field 11"), "{bad}: {location}");
                    assert!(message.contains(bad), "{bad}: {message}");
                }
                other => panic!("{bad}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn walltime_is_padded_to_the_actual_runtime_on_overruns() {
        // run (900) exceeds requested (600): the job overran and was killed
        // late. Schedulers must never see duration > walltime.
        let line = "1 0 0 900 4 -1 -1 4 600 -1 1 1 1 -1 1 1 -1 -1\n";
        let jobs = parse_trace(line).expect("parses").to_jobs(0);
        assert_eq!(jobs[0].duration, SimDuration::from_secs(900));
        assert_eq!(jobs[0].walltime, SimDuration::from_secs(900));
    }

    /// Trace fields are outside input: a requested time of `i64::MAX`
    /// seconds converts — in a debug build too, where the multiplication by
    /// 1000 used to panic — to the longest walltime there is, not to the
    /// few-seconds one the wrapped product was in a release build.
    #[test]
    fn a_requested_time_too_long_to_represent_saturates() {
        let line = "1 0 12 1820 8 1650.5 1048576 8 9223372036854775807 -1 1 11 2 3 1 1 -1 -1\n";
        let jobs = parse_trace(line).expect("parses").to_jobs(0);
        assert_eq!(jobs[0].duration, SimDuration::from_secs(1820));
        assert_eq!(jobs[0].walltime, SimDuration::MAX);
    }

    /// `used_memory_kb × procs` must not overflow either: the job ingests
    /// with its memory saturated, larger than any machine, and it is the
    /// simulator's `validate_workload` that then turns it away.
    #[test]
    fn a_memory_field_too_large_to_multiply_saturates() {
        let line = "1 0 12 1820 8 1650.5 9223372036854775807 8 3600 -1 1 11 2 3 1 1 -1 -1\n";
        let jobs = parse_trace(line).expect("parses").to_jobs(0);
        assert_eq!(jobs[0].nodes, 8);
        assert_eq!(jobs[0].memory_gb, u64::MAX.div_ceil(1024 * 1024));
    }

    /// ... nor `MaxNodes ×` the per-node GB a derived cluster is sized by:
    /// a header above two million nodes beside such a memory field sizes a
    /// machine with all the memory there is, which still fits the job.
    #[test]
    fn a_derived_cluster_too_large_to_multiply_saturates() {
        let text = "; MaxNodes: 4194304\n\
            1 0 12 1820 8 1650.5 9223372036854775807 8 3600 -1 1 11 2 3 1 1 -1 -1\n";
        let trace = parse_trace(text).expect("parses");
        let cluster = trace.cluster();
        assert_eq!((cluster.nodes, cluster.memory_gb), (4_194_304, u64::MAX));
        assert!(trace.to_jobs(0)[0].memory_gb <= cluster.memory_gb);
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let trace = parse_trace(SAMPLE).expect("parses");
        let re = parse_trace(&trace.to_string()).expect("re-parses");
        assert_eq!(re, trace);
    }

    #[test]
    fn derived_cluster_fits_every_usable_job() {
        let trace = parse_trace(SAMPLE).expect("parses");
        let cluster = trace.cluster();
        assert_eq!(cluster.nodes, 64, "header MaxNodes wins");
        for j in trace.to_jobs(0) {
            assert!(j.nodes <= cluster.nodes);
            assert!(j.memory_gb <= cluster.memory_gb);
        }
    }

    #[test]
    fn headerless_trace_sizes_cluster_from_widest_job() {
        let text = "7 0 0 100 12 -1 -1 12 100 -1 1 1 1 -1 1 1 -1 -1\n";
        let trace = parse_trace(text).expect("parses");
        assert_eq!(trace.max_nodes(), None);
        assert_eq!(trace.cluster().nodes, 12);
    }

    #[test]
    fn missing_file_reports_io_error() {
        match load_trace("/definitely/not/here.swf") {
            Err(WorkloadError::Io { path, .. }) => assert!(path.ends_with("here.swf")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_trace_converts_to_no_jobs() {
        let trace = parse_trace("; Version: 2.2\n").expect("parses");
        assert!(trace.to_jobs(0).is_empty());
    }

    #[test]
    fn streaming_reader_matches_eager_parse() {
        let eager = parse_trace(SAMPLE).expect("parses");
        let mut reader = SwfReader::from_text(SAMPLE);
        let jobs: Vec<SwfJob> = (&mut reader).map(|j| j.expect("streams")).collect();
        assert_eq!(jobs, eager.jobs);
        assert_eq!(reader.directives(), &eager.directives[..]);
        assert_eq!(reader.directive("maxnodes"), Some("64"));
        assert_eq!(reader.line_no(), SAMPLE.lines().count());
    }

    #[test]
    fn streaming_conversion_matches_eager_to_jobs() {
        for limit in [0, 2, 5, 100] {
            let eager = parse_trace(SAMPLE).expect("parses").to_jobs(limit);
            let streamed = SwfReader::from_text(SAMPLE)
                .into_jobs(limit)
                .expect("streams");
            assert_eq!(streamed, eager, "limit {limit}");
        }
    }

    #[test]
    fn streaming_directives_accumulate_incrementally() {
        let mut reader = SwfReader::from_text(SAMPLE);
        assert!(reader.directives().is_empty(), "nothing read yet");
        let first = reader.next().expect("a job").expect("parses");
        assert_eq!(first.job_id, 1);
        // All four directives precede the first job line.
        assert_eq!(reader.directives().len(), 4);
    }

    #[test]
    fn streaming_reader_fuses_after_first_error() {
        let text = "1 2 3\n1 0 0 60 1 -1 -1 1 60 -1 1 1 1 -1 1 1 -1 -1\n";
        let mut reader = SwfReader::from_text(text);
        assert!(reader.next().expect("yields the error").is_err());
        assert!(reader.next().is_none(), "fused: the stream is poisoned");
        assert!(reader.next().is_none());
    }

    #[test]
    fn truncated_final_field_is_rejected_with_location() {
        // An EOF-cut file that lost the tail of its last numeric field
        // ("3600.25" → "3600.") still has 18 fields; the float fallback
        // used to accept it silently. It must fail like any malformed
        // token, with the same `line N, field M` anchoring as the header
        // path.
        let good = "1 0 0 100 4 -1 -1 4 3600.25 -1 1 1 1 -1 1 1 -1 -1\n";
        assert_eq!(
            parse_trace(good).expect("parses").jobs[0].requested_secs,
            3600
        );
        for (bad, field) in [
            ("1 0 0 100 4 -1 -1 4 3600. -1 1 1 1 -1 1 1 -1 -1\n", 9),
            ("1 0 0 100 4 -1 -1 4 3600 -1 1 1 1 -1 1 1 -1 .5\n", 18),
            ("1 0 0 100 4 -1 -1 4 3600 -1 1 1 1 -1 1 1 -1 -\n", 18),
            ("1 0 0 100 4 .5. -1 4 3600 -1 1 1 1 -1 1 1 -1 -1\n", 6),
        ] {
            let err = parse_trace(bad).unwrap_err();
            match &err {
                WorkloadError::Parse { location, message } => {
                    assert_eq!(location, &format!("line 1, field {field}"), "{bad}");
                    assert!(message.contains("is not a number"), "{message}");
                }
                other => panic!("unexpected {other:?}"),
            }
            // The streaming reader reports the identical error.
            let streamed = SwfReader::from_text(bad).next().expect("errors");
            assert_eq!(streamed.unwrap_err(), err);
        }
    }

    #[test]
    fn file_reader_anchors_errors_to_the_path() {
        let trace = load_trace("fixtures/../fixtures/sample.swf");
        // Resolved relative to the crate dir in unit tests; tolerate both
        // outcomes but exercise the open path.
        if let Ok(t) = trace {
            assert_eq!(t.jobs.len(), 7);
        }
        match SwfReader::open("/definitely/not/here.swf") {
            Err(WorkloadError::Io { path, .. }) => assert!(path.ends_with("here.swf")),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A processor count past `u32::MAX` is not the small count its low 32
    /// bits spell (4294967297 used to ingest as a 1-node job).
    #[test]
    fn a_processor_count_too_wide_to_represent_saturates() {
        let line = "1 0 0 60 4294967297 -1 -1 8589934593 60 -1 1 1 1 -1 1 1 -1 -1\n";
        let trace = parse_trace(line).expect("parses");
        assert_eq!(trace.jobs[0].procs(), Some(u32::MAX));
        // The requested count saturates as well: equal to the node count,
        // so no per-node core demand, not `1.div_ceil(1)` by accident.
        assert!(trace.jobs[0].per_node_demand().is_zero());
        assert_eq!(trace.to_jobs(0)[0].nodes, u32::MAX);
        let requested_only = "1 0 0 60 -1 -1 -1 4294967297 60 -1 1 1 1 -1 1 1 -1 -1\n";
        let trace = parse_trace(requested_only).expect("parses");
        assert_eq!(trace.jobs[0].procs(), Some(u32::MAX));
    }

    /// The line parser as it was before it stopped allocating: tokens
    /// collected into a `Vec`, every field checked and then parsed. The
    /// oracle of `line_parser_rules_as_the_collecting_one_did`.
    fn reference_parse_job_line(line: &str, line_no: usize) -> Result<SwfJob, WorkloadError> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != SWF_FIELD_COUNT {
            return Err(WorkloadError::Parse {
                location: format!("line {line_no}"),
                message: format!("expected {SWF_FIELD_COUNT} fields, found {}", fields.len()),
            });
        }
        let bad = |idx: usize| WorkloadError::Parse {
            location: format!("line {line_no}, field {}", idx + 1),
            message: format!("`{}` is not a number", fields[idx]),
        };
        let int = |idx: usize| -> Result<i64, WorkloadError> {
            let raw = fields[idx];
            if !is_complete_decimal(raw) {
                return Err(bad(idx));
            }
            raw.parse::<i64>()
                .ok()
                .or_else(|| {
                    raw.parse::<f64>()
                        .ok()
                        .filter(|v| {
                            v.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(v)
                        })
                        .map(|v| v as i64)
                })
                .ok_or_else(|| bad(idx))
        };
        let float = |idx: usize| -> Result<f64, WorkloadError> {
            let raw = fields[idx];
            if !is_complete_decimal(raw) {
                return Err(bad(idx));
            }
            raw.parse::<f64>().map_err(|_| bad(idx))
        };
        Ok(SwfJob {
            job_id: int(0)?,
            submit_secs: int(1)?,
            wait_secs: int(2)?,
            run_secs: int(3)?,
            allocated_procs: int(4)?,
            avg_cpu_secs: float(5)?,
            used_memory_kb: int(6)?,
            requested_procs: int(7)?,
            requested_secs: int(8)?,
            requested_memory_kb: int(9)?,
            status: int(10)?,
            user: int(11)?,
            group: int(12)?,
            executable: int(13)?,
            queue: int(14)?,
            partition: int(15)?,
            preceding_job: int(16)?,
            think_secs: int(17)?,
        })
    }

    /// Tokens the two parsers could come to rule on differently: signs,
    /// leading zeros, float spellings of integers, truncated tails, the
    /// edges of the one-pass route (18 / 19 / 20 digits) and of `i64`, and
    /// bytes that are not ASCII.
    const EDGE_TOKENS: [&str; 24] = [
        "-1",
        "+5",
        "-0",
        "007",
        "3600.0",
        "3600.",
        ".5",
        "-",
        "+",
        "1e3",
        "nan",
        "inf",
        "123456789012345678",
        "-999999999999999999",
        "1234567890123456789",
        "12345678901234567890",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "9223372036854775807.5",
        "4é2",
        "١٢",
        "1_0",
        "0x10",
    ];
    const PLAIN_TOKENS: [&str; 6] = ["0", "1", "42", "-1", "86400", "1650.25"];
    /// `u8::is_ascii_whitespace` and `char::is_whitespace` disagree on
    /// `\x0B`; the last two are whitespace only to the latter.
    const SEPARATORS: [&str; 9] = [
        " ", "\t", "\x0B", "\x0C", "\r", "\u{a0}", "\u{2003}", "  ", " \t ",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Same `SwfJob` bit for bit, same error location and message, on
        /// lines of 0–20 fields; three lines in four are brought to 18
        /// fields, and seven tokens in eight are plain, so about a third of
        /// those parse.
        #[test]
        fn line_parser_rules_as_the_collecting_one_did(
            picks in prop::collection::vec((0usize..8 * EDGE_TOKENS.len(), 0usize..SEPARATORS.len()), 0..21),
            exact in 0u32..4,
            line_no in 1usize..1_000_000,
        ) {
            let mut picks = picks;
            if exact != 0 && !picks.is_empty() {
                let cycle = picks.clone();
                picks = cycle.into_iter().cycle().take(SWF_FIELD_COUNT).collect();
            }
            let mut line = String::new();
            for &(token, separator) in &picks {
                line.push_str(EDGE_TOKENS.get(token).unwrap_or(&PLAIN_TOKENS[token % PLAIN_TOKENS.len()]));
                line.push_str(SEPARATORS[separator]);
            }
            let got = parse_job_line(&line, line_no);
            let want = reference_parse_job_line(&line, line_no);
            // `PartialEq` calls `-0.0` and `0.0` equal; the bits do not.
            let cpu_bits = |r: &Result<SwfJob, WorkloadError>| r.as_ref().ok().map(|j| j.avg_cpu_secs.to_bits());
            prop_assert_eq!(cpu_bits(&got), cpu_bits(&want));
            prop_assert_eq!(got, want);
        }
    }

    /// The conversion orders 24-byte keys, not rows: on a stream with
    /// out-of-order and equal submit times it keeps the rows a stable
    /// `(submit, job_id)` sort of the rows keeps, in that order, and cuts
    /// where that sort cut — and the streamed text is the rows.
    #[test]
    fn key_sort_orders_and_truncates_as_the_row_sort_did() {
        use crate::synth::{polaris_synth_rows, polaris_synth_text};
        for seed in [3, 7] {
            let rows = polaris_synth_rows(2000, seed);
            let text = polaris_synth_text(2000, seed);
            let streamed: Vec<SwfJob> = SwfReader::from_text(&text)
                .collect::<Result<_, _>>()
                .expect("streams");
            assert_eq!(streamed, rows);

            let mut sorted: Vec<&SwfJob> = rows.iter().filter(|j| j.is_usable()).collect();
            sorted.sort_by_key(|j| (j.submit_secs, j.job_id));
            assert!(
                sorted
                    .windows(2)
                    .any(|w| w[0].submit_secs == w[1].submit_secs),
                "the stream must hold equal submit times"
            );
            let trace = SwfTrace {
                directives: Vec::new(),
                jobs: rows.clone(),
            };
            for limit in [0, 1, 137] {
                let jobs = SwfReader::from_text(&text)
                    .into_jobs(limit)
                    .expect("streams");
                assert_eq!(jobs, trace.to_jobs(limit), "limit {limit}");
                assert_eq!(jobs, jobs_from_rows(rows.clone(), limit), "limit {limit}");
                let kept = if limit == 0 { sorted.len() } else { limit };
                assert_eq!(jobs.len(), kept, "limit {limit}");
                for (job, row) in jobs.iter().zip(&sorted) {
                    let since_origin = (row.submit_secs - sorted[0].submit_secs) as u64;
                    assert_eq!(job.submit, SimTime::from_secs(since_origin));
                    assert_eq!(job.nodes, row.procs().expect("usable"));
                    let runtime = row.runtime_secs().expect("usable");
                    assert_eq!(job.duration, SimDuration::from_secs(runtime));
                }
            }
        }
    }
}
