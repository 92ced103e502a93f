//! Dataflow / version analysis.
//!
//! Every annotated read of a blob version must be *dominated* by the
//! write that produced it — a path of dependency edges must force the
//! producer to complete before the consumer starts, in **every** linear
//! extension of the DAG, not just the one the simulator happens to pick.
//! For persistent blobs (fp16 parameters on their home tier, P32+OS32
//! master state) the pass additionally checks the write-after-read
//! hazard: producing version `v+1` physically overwrites version `v`, so
//! every reader of `v` must be ordered before the `v+1` writer. A
//! transient blob is double-buffered within a micro-batch, but a later
//! micro-batch of the same iteration refills the one slot an earlier one
//! drained: there the hazard is checked for every kind.
//!
//! This is the static form of the paper's §IV-C claim: active gradient
//! offloading introduces *no parameter staleness* because the backward
//! pass re-fetches parameters only after the optimizer's write-back, and
//! the optimizer consumes this iteration's gradient, not a stale one.

use std::collections::HashMap;

use ratel_sim::{BlobKind, TaskGraph, TaskId, VersionedBlob};

use crate::finding::{task_label, Finding, Rule};
use crate::legality::micro_batch;
use crate::reach::{witness_path, Reachability};

/// Maps a read-after-write violation to the paper invariant it breaks:
/// parameter/gradient state maps to §IV-C staleness, transient data
/// (activations, staging buffers, hidden state) to use-before-fetch.
fn raw_rule(kind: BlobKind) -> Rule {
    match kind {
        BlobKind::Param16 | BlobKind::Master | BlobKind::Grad | BlobKind::GradReduced => {
            Rule::Staleness
        }
        _ => Rule::UseBeforeFetch,
    }
}

/// Runs the dataflow pass. Returns findings plus the number of distinct
/// blob versions seen.
pub fn check(graph: &TaskGraph, reach: &Reachability) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();

    // Producer index: (blob, version) -> writer task.
    let mut producers: HashMap<VersionedBlob, TaskId> = HashMap::new();
    let mut versions: HashMap<VersionedBlob, ()> = HashMap::new();
    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        for w in &meta.writes {
            versions.insert(*w, ());
            if let Some(prev) = producers.insert(*w, t) {
                findings.push(Finding {
                    rule: Rule::DuplicateProducer,
                    task: t,
                    label: task_label(graph, t),
                    blob: Some(w.to_string()),
                    detail: format!("both this task and `{}` write {w}", task_label(graph, prev)),
                    witness: Vec::new(),
                    suggestion: "bump the version counter between writes so each version \
                                 has exactly one producer"
                        .into(),
                });
            }
        }
        for r in &meta.reads {
            versions.insert(*r, ());
        }
    }

    // Read-after-write: every read dominated by its producer.
    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        for r in &meta.reads {
            match producers.get(r) {
                None => {
                    if r.version != 0 {
                        findings.push(Finding {
                            rule: raw_rule(r.key.kind),
                            task: t,
                            label: task_label(graph, t),
                            blob: Some(r.to_string()),
                            detail: format!("reads {r} but no task produces that version"),
                            witness: Vec::new(),
                            suggestion: "add the producing task, or read version 0 if the \
                                         initial state is intended"
                                .into(),
                        });
                    }
                }
                Some(&p) => {
                    if !reach.reaches(p, t) {
                        findings.push(Finding {
                            rule: raw_rule(r.key.kind),
                            task: t,
                            label: task_label(graph, t),
                            blob: Some(r.to_string()),
                            detail: format!(
                                "reads {r} but is not ordered after its producer `{}` — \
                                 the read may observe version {}",
                                task_label(graph, p),
                                r.version.saturating_sub(1),
                            ),
                            witness: Vec::new(),
                            suggestion: format!(
                                "add a dependency path from `{}` to `{}`",
                                task_label(graph, p),
                                task_label(graph, t)
                            ),
                        });
                    }
                }
            }
        }
    }

    // Write-after-read: version v+1 clobbers v in place — always for
    // persistent blobs, across micro-batches for transient ones — so
    // each such reader of v must complete before the v+1 write.
    let mut readers: HashMap<VersionedBlob, Vec<TaskId>> = HashMap::new();
    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        for r in &meta.reads {
            readers.entry(*r).or_default().push(t);
        }
    }
    for (&wv, &w) in producers.iter() {
        if wv.version == 0 {
            continue;
        }
        let prev = VersionedBlob {
            key: wv.key,
            version: wv.version - 1,
        };
        for &r in readers.get(&prev).into_iter().flatten() {
            // A read-modify-write task (e.g. an in-place optimizer step
            // reading master@v and writing master@v+1) is trivially safe.
            if r == w {
                continue;
            }
            let ((ri, rm), (wi, wm)) = (micro_batch(graph, r), micro_batch(graph, w));
            let refilled = ri == wi && rm < wm;
            if !wv.key.kind.is_persistent() && !refilled {
                continue;
            }
            if !reach.reaches(r, w) {
                let witness = if reach.reaches(w, r) {
                    witness_path(graph, reach, w, r)
                        .iter()
                        .map(|t| task_label(graph, *t))
                        .collect()
                } else {
                    Vec::new()
                };
                findings.push(Finding {
                    rule: Rule::WriteAfterRead,
                    task: w,
                    label: task_label(graph, w),
                    blob: Some(wv.to_string()),
                    detail: format!(
                        "writes {wv} in place, but `{}` reads {prev} and is not ordered \
                         before the write",
                        task_label(graph, r)
                    ),
                    witness,
                    suggestion: format!(
                        "add a dependency path from `{}` to `{}` so the read drains \
                         before the overwrite",
                        task_label(graph, r),
                        task_label(graph, w)
                    ),
                });
            }
        }
    }

    findings.sort_by_key(|f| f.task);
    (findings, versions.len())
}
