//! Structured diagnostics and the machine-readable report.

use ratel_sim::{MemTier, TaskGraph, TaskId};

/// The invariant a finding violates. Each rule maps to one of the paper's
/// correctness claims (see DESIGN.md, "Static schedule verification").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A consumer of parameter/gradient state is not dominated by the
    /// producer of the version it needs (§IV-C "no parameter staleness").
    Staleness,
    /// A consumer of transient data (activations, staging buffers, hidden
    /// state) is not dominated by its producer — it may run before the
    /// data exists on its tier.
    UseBeforeFetch,
    /// A writer of persistent state version `v+1` is not ordered after a
    /// reader of version `v`: the write may clobber bytes still in use.
    WriteAfterRead,
    /// Two tasks claim to produce the same blob version.
    DuplicateProducer,
    /// A tier's worst-case concurrent footprint exceeds its budget
    /// (§IV-D `MEM_avail` / spill-budget capacity model).
    CapacityExceeded,
    /// Residency annotations are inconsistent (free without alloc,
    /// double alloc, free not ordered after its alloc).
    ResidencyBookkeeping,
    /// A task's operation class does not match the class of the resource
    /// it is bound to (e.g. CPU compute on a PCIe lane).
    IllegalResource,
    /// SSD traffic is split across multiple resources — the array is
    /// simplex: reads and writes must share one FIFO.
    SimplexViolation,
    /// Both PCIe directions share one resource — the link is duplex:
    /// G2M and M2G must be independent lanes.
    DuplexViolation,
    /// A dependency edge runs backwards in time: against `Stage::ALL`
    /// order within a micro-batch, or from a later micro-batch or
    /// iteration to an earlier one.
    StageOrder,
    /// A dependency ranks after its dependent: the plan's issue order
    /// ([`ratel_sim::TaskGraph::set_rank`]) would have a link favour a
    /// task over the one it waits on.
    RankOrder,
}

impl Rule {
    /// Stable machine-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Staleness => "staleness",
            Rule::UseBeforeFetch => "use-before-fetch",
            Rule::WriteAfterRead => "write-after-read",
            Rule::DuplicateProducer => "duplicate-producer",
            Rule::CapacityExceeded => "capacity-exceeded",
            Rule::ResidencyBookkeeping => "residency-bookkeeping",
            Rule::IllegalResource => "illegal-resource",
            Rule::SimplexViolation => "simplex-violation",
            Rule::DuplexViolation => "duplex-violation",
            Rule::StageOrder => "stage-order",
            Rule::RankOrder => "rank-order",
        }
    }
}

/// One verified violation, with enough context to locate and fix it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated invariant.
    pub rule: Rule,
    /// The task the finding anchors to.
    pub task: TaskId,
    /// That task's timeline label (or `task N` if unlabeled).
    pub label: String,
    /// The blob involved, rendered (e.g. `p16[L3]@v2`), if any.
    pub blob: Option<String>,
    /// What went wrong, in one sentence.
    pub detail: String,
    /// A witness path of task labels through the DAG demonstrating the
    /// hazard, when one exists (empty when the violation is the *absence*
    /// of a path).
    pub witness: Vec<String>,
    /// How to repair the schedule.
    pub suggestion: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule.name(), self.label, self.detail)?;
        if let Some(blob) = &self.blob {
            write!(f, " (blob {blob})")?;
        }
        if !self.witness.is_empty() {
            write!(f, "\n    witness: {}", self.witness.join(" -> "))?;
        }
        write!(f, "\n    fix: {}", self.suggestion)
    }
}

/// The most bytes one memory tier may hold at once, under any executor
/// interleaving of the verified graph (see [`crate::residency`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierPeak {
    /// Every annotated blob.
    pub total: f64,
    /// Activation blobs alone — what the planner's `MEM_avail` budgets.
    pub activations: f64,
    /// Bytes no task frees: resident when the graph completes, so a
    /// graph that runs after it starts with them.
    pub outliving: f64,
}

/// The result of running the static passes over one graph.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All violations found, in pass order.
    pub findings: Vec<Finding>,
    /// Number of tasks that carried metadata (and were thus analyzed).
    pub tasks_checked: usize,
    /// Number of distinct blob versions seen across reads and writes.
    pub versions_seen: usize,
    /// Number of residency intervals analyzed.
    pub intervals: usize,
    /// Static peak per memory tier, in [`MemTier::ALL`] order.
    pub peaks: [TierPeak; 3],
}

impl VerifyReport {
    /// Whether no pass found a violation.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The static peak of one tier.
    pub fn peak(&self, tier: MemTier) -> TierPeak {
        self.peaks[tier as usize]
    }

    /// `gpu 9.182e6 B, host 1.410e7 B, ssd 0.000e0 B`: the per-tier
    /// peaks on one line.
    pub fn render_peaks(&self) -> String {
        let peak = |tier: MemTier| format!("{} {:.3e} B", tier.name(), self.peak(tier).total);
        MemTier::ALL.map(peak).join(", ")
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "clean: {} annotated tasks, {} blob versions, {} residency intervals; peak {}\n",
                self.tasks_checked,
                self.versions_seen,
                self.intervals,
                self.render_peaks()
            ));
        } else {
            out.push_str(&format!("{} violation(s):\n", self.findings.len()));
            for f in &self.findings {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out
    }

    /// Machine-readable JSON rendering (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"clean\":{},\"tasks_checked\":{},\"versions_seen\":{},\"intervals\":{},\
             \"peak_bytes\":{:?},\"findings\":[",
            self.is_clean(),
            self.tasks_checked,
            self.versions_seen,
            self.intervals,
            self.peaks.map(|p| p.total)
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"task\":{},\"label\":{},\"blob\":{},\"detail\":{},\"witness\":[{}],\"suggestion\":{}}}",
                json_str(f.rule.name()),
                f.task.0,
                json_str(&f.label),
                f.blob.as_deref().map_or_else(|| "null".into(), json_str),
                json_str(&f.detail),
                f.witness
                    .iter()
                    .map(|w| json_str(w))
                    .collect::<Vec<_>>()
                    .join(","),
                json_str(&f.suggestion),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal with escaping.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The display label of a task, falling back to its index.
pub(crate) fn task_label(g: &TaskGraph, t: TaskId) -> String {
    g.label(t)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("task {}", t.0))
}
