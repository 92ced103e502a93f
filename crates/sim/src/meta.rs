//! Optional per-task metadata for static schedule verification.
//!
//! A [`crate::TaskGraph`] is, by itself, just tasks on resources with
//! dependency edges — enough to *simulate* a schedule but not enough to
//! *prove* it safe. The semantic layer `ratel-verify` analyzes without
//! simulating — which logical blob each task reads or writes and at
//! which version, which operation class the task performs, which memory
//! tier it occupies — lives in the shared [`ratel_contract`] crate so
//! the planner, verifier, and engine executor speak the same types
//! without depending on the simulator. This module re-exports it under
//! the historical `ratel_sim::meta` paths.
//!
//! All of it is optional: tasks without metadata simulate exactly as
//! before and are simply invisible to the static passes.

pub use ratel_contract::{
    BlobKey, BlobKind, Edge, MemTier, OpClass, ResidencyAlloc, ResourceClass, TaskIdentity,
    TaskKind, TaskMeta, TaskRef, VersionedBlob,
};
