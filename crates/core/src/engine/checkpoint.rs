//! Crash-safe, generation-numbered checkpoints.
//!
//! A checkpoint directory holds *generations*. Saving generation `N`
//! writes every blob as `gN-layer<l>.master` / `gN-layer<l>.moments` and
//! then a `manifest-gN.txt` — each file written to a temp sibling,
//! fsynced, and renamed into place, with the manifest last. Because the
//! manifest commits the generation and earlier generations' files are
//! never touched, a crash at *any* point leaves the directory loadable:
//! either the new manifest exists complete (the save happened) or it
//! doesn't (the save never happened and generation `N-1` is intact).
//! A rename is durable only once its directory is: the directory is
//! fsynced once per generation, right after the manifest's rename (which
//! orders every blob's rename before it), and `save` returns after that.
//!
//! A checkpoint holds masters and moments, never P16 copies, so it does
//! not depend on where the engine that saved it kept them: one saved
//! with every master host-resident resumes in an engine that keeps all
//! states on the SSD tier, and the reverse.
//!
//! The manifest carries the engine's step clock, per-layer update
//! counts, and a [`checksum`] + byte length for every blob, plus a
//! self-checksum over its own body. Loading verifies all of them and
//! walks backward through generations until one passes — torn or
//! bit-flipped checkpoints are *detected*, never silently restored.
//! While a generation is verified, each blob whose key rests on the SSD
//! tier waits there under a shadow key (a `…Loading` kind), so the loader
//! holds only the blobs bound for host memory; once all pass, each shadow
//! is renamed over its key ([`TieredStore::rename`], an index change
//! alone) and the rest are overwritten in place. After a successful save the directory is
//! pruned to the two newest generations.
//!
//! Manifest format (text, one record per line):
//!
//! ```text
//! ratel-checkpoint v2
//! generation 3
//! step 40
//! layer 0 38 51200 a1b2c3d4e5f60718 102400 18f6e5d4c3b2a190
//! ...
//! checksum 0123456789abcdef
//! ```
//!
//! The `layer` fields are: id, applied-update count, master byte length,
//! master checksum, moments byte length, moments checksum. A manifest of
//! any other version is refused by name (`v1` summed with byte-serial
//! FNV-1a): the format has one reader.
//!
//! The checksum reads its bytes as little-endian `u64` words dealt
//! round-robin to four lanes, so four independent chains share the core
//! and it runs at memory speed, not one multiply a byte. A lane steps
//! `y = (h ^ w) · 0x9E3779B97F4A7C15; h = y ^ (y >> 32)`: an xor, a
//! multiply by an odd constant and a xorshift, each invertible mod 2^64,
//! so a step is a bijection of the word for a fixed lane state and of
//! the state for a fixed word. A change confined to one 8-byte word
//! thus changes its lane's state at that word and at every later one;
//! the fold chains the four lanes, the zero-padded tail bytes and the
//! length through the same step, a bijection of each, so the checksum
//! changes: any one-word (and so any one-byte) corruption is always
//! caught. The xorshift keeps two-bit flips apart: with the multiply
//! alone, bit 63 flipped in two words of one lane cancels, since
//! 2^63 · odd ≡ 2^63 (mod 2^64). This is corruption *detection*, not
//! security.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use ratel_sim::{BlobKey, BlobKind};
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::f32_le_to_f16_le;

use crate::error::RatelError;
use crate::schedule::Placement;

use super::blobs::key;
use super::RatelEngine;

/// The manifest's first line, naming its format.
const HEADER: &str = "ratel-checkpoint v2";

/// The lanes' starting state, each XOR its lane index: FNV's 64-bit
/// offset basis.
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of a lane, a bijection of `h` for a fixed `w` and of `w` for
/// a fixed `h` (see the module docs).
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    let y = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    y ^ (y >> 32)
}

/// The checksum of every blob and of the manifest body: 64 bits over
/// `bytes` read as little-endian `u64` words in four lanes, word `i` in
/// lane `i % 4`, then the lanes, the zero-padded tail and the length
/// folded together. Any change confined to one 8-byte word changes it
/// (module docs). Its value is part of the `v2` format.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut lanes = [0, 1, 2, 3].map(|i| BASIS ^ i);
    let mut blocks = words.chunks_exact(4);
    for block in &mut blocks {
        for (lane, &w) in lanes.iter_mut().zip(block) {
            *lane = mix(*lane, u64::from_le_bytes(w));
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(blocks.remainder()) {
        *lane = mix(*lane, u64::from_le_bytes(w));
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let lanes = lanes.into_iter().fold(BASIS, mix);
    mix(mix(lanes, u64::from_le_bytes(last)), bytes.len() as u64)
}

/// FNV-1a 64-bit, byte-serial: the hash of the emitter's golden pins
/// (`schedule.rs`, `dag_step.rs`) and of `v1` checkpoint manifests.
#[cfg(test)]
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Writes `bytes` to `path` via a temp sibling + fsync + rename, so the
/// final path either holds the complete content or does not exist.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

fn manifest_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("manifest-g{generation}.txt"))
}

fn blob_path(dir: &Path, generation: u64, layer: usize, kind: &str) -> PathBuf {
    dir.join(format!("g{generation}-layer{layer}.{kind}"))
}

/// Generations present in `dir` (by manifest file), ascending.
pub(crate) fn generations(dir: &Path) -> Vec<u64> {
    let mut gens: Vec<u64> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.strip_prefix("manifest-g")?
                    .strip_suffix(".txt")?
                    .parse()
                    .ok()
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    gens.sort_unstable();
    gens.dedup();
    gens
}

/// One parsed manifest, checked against the engine's shape.
struct Manifest {
    step: u64,
    /// Per layer id: its applied-update count and the `(length,
    /// checksum)` its master and its moments were saved with.
    layers: Vec<(u64, [(usize, u64); 2])>,
}

/// A verified blob on its way into the engine under `key`: its bytes
/// when the key rests in host memory, `None` once they wait on the SSD
/// tier under `shadow`.
struct Staged {
    key: BlobKey,
    shadow: BlobKey,
    bytes: Option<Vec<u8>>,
}

impl Staged {
    /// Stages `bytes` for layer `layer`'s blob of kind `kind`: held in
    /// memory when it rests in host memory, written beside it under its
    /// shadow — the same layer's blob of kind `shadow` — when it rests on
    /// the SSD tier (an unmetered put: the loader holds no SSD-bound
    /// blob).
    fn new(
        store: &TieredStore<BlobKey>,
        (kind, shadow): (BlobKind, BlobKind),
        layer: usize,
        bytes: Vec<u8>,
    ) -> Result<Staged, StorageError> {
        let (key, shadow) = (key(kind, layer), key(shadow, layer));
        let bytes = if store.tier_of(&key).ok() == Some(Tier::Ssd) {
            store.put(&shadow, Tier::Ssd, bytes)?;
            None
        } else {
            Some(bytes)
        };
        Ok(Staged { key, shadow, bytes })
    }

    /// Replaces `key`'s blob where it rests: overwritten in host memory,
    /// or by its shadow, renamed over it on the SSD tier (a shadow that
    /// could not be is removed).
    fn commit(self, store: &TieredStore<BlobKey>) -> Result<(), StorageError> {
        let Some(bytes) = self.bytes else {
            return store.rename(&self.shadow, &self.key).inspect_err(|_| {
                let _ = store.remove(&self.shadow);
            });
        };
        store.overwrite(&self.key, bytes)
    }
}

/// What a checkpoint restores and the shadow each waits under.
const MASTER: (BlobKind, BlobKind) = (BlobKind::Master, BlobKind::MasterLoading);
const MOMENTS: (BlobKind, BlobKind) = (BlobKind::Moments, BlobKind::MomentsLoading);
const P16: (BlobKind, BlobKind) = (BlobKind::Param16, BlobKind::P16Loading);

/// Removes the shadows of `staged`, best-effort.
fn discard(store: &TieredStore<BlobKey>, staged: &[Staged]) {
    for blob in staged.iter().filter(|b| b.bytes.is_none()) {
        let _ = store.remove(&blob.shadow);
    }
}

/// Saves a new generation. See the module docs for the on-disk layout.
pub(crate) fn save(engine: &RatelEngine, dir: &Path) -> Result<(), RatelError> {
    fs::create_dir_all(dir).map_err(|e| {
        RatelError::CheckpointCorrupt(format!("cannot create {}: {e}", dir.display()))
    })?;
    let generation = generations(dir).last().copied().unwrap_or(0) + 1;
    let io_err = |what: &str, e: std::io::Error| {
        RatelError::CheckpointCorrupt(format!("writing {what}: {e}"))
    };

    let mut body = format!("{HEADER}\n");
    body.push_str(&format!("generation {generation}\n"));
    body.push_str(&format!("step {}\n", engine.step));
    for layer in 0..engine.layer_count() {
        let master = engine.store.read(&key(BlobKind::Master, layer))?;
        let moments = engine.store.read(&key(BlobKind::Moments, layer))?;
        let mpath = blob_path(dir, generation, layer, "master");
        let opath = blob_path(dir, generation, layer, "moments");
        write_atomic(&mpath, &master).map_err(|e| io_err("master blob", e))?;
        write_atomic(&opath, &moments).map_err(|e| io_err("moments blob", e))?;
        body.push_str(&format!(
            "layer {layer} {} {} {:016x} {} {:016x}\n",
            engine.layer_steps[layer],
            master.len(),
            checksum(&master),
            moments.len(),
            checksum(&moments),
        ));
    }
    let manifest = format!("{body}checksum {:016x}\n", checksum(body.as_bytes()));
    // The manifest rename is the commit point of the whole generation,
    // durable once the directory that records the renames is.
    write_atomic(&manifest_path(dir, generation), manifest.as_bytes())
        .map_err(|e| io_err("manifest", e))?;
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("checkpoint directory", e))?;
    ratel_obs::flight().record(
        ratel_obs::EventKind::CheckpointCommit,
        0,
        "checkpoint",
        manifest.len() as u64,
        generation,
    );
    ratel_obs::registry()
        .counter(
            "ratel_checkpoint_commits_total",
            "Checkpoint generations committed (manifest renamed into place)",
        )
        .inc();
    ratel_obs::registry()
        .gauge(
            "ratel_checkpoint_generation",
            "Most recently committed checkpoint generation",
        )
        .set(generation as f64);

    // Keep this generation and its predecessor; prune everything older.
    for old in generations(dir) {
        if old + 1 >= generation {
            continue;
        }
        let _ = fs::remove_file(manifest_path(dir, old));
        for layer in 0..engine.layer_count() {
            let _ = fs::remove_file(blob_path(dir, old, layer, "master"));
            let _ = fs::remove_file(blob_path(dir, old, layer, "moments"));
        }
    }
    Ok(())
}

/// Parses and verifies one generation's manifest — against its own
/// checksum and against the engine's shape, `layer_params` parameters a
/// layer.
fn read_manifest(dir: &Path, generation: u64, layer_params: &[usize]) -> Result<Manifest, String> {
    let path = manifest_path(dir, generation);
    let text = fs::read_to_string(&path).map_err(|e| format!("manifest unreadable: {e}"))?;
    // The header first: another version's checksums are not this one's.
    let header = text.lines().next().unwrap_or_default();
    if header != HEADER {
        return Err(format!("manifest header {header:?} is not {HEADER:?}"));
    }

    // Then split off and verify the self-checksum line.
    let trimmed = text.strip_suffix('\n').unwrap_or(&text);
    let (body_end, checksum_line) = match trimmed.rfind('\n') {
        Some(i) => (i + 1, &trimmed[i + 1..]),
        None => return Err("manifest truncated before checksum".into()),
    };
    let body = &text[..body_end];
    let declared = checksum_line
        .strip_prefix("checksum ")
        .ok_or("manifest missing checksum line")?;
    let declared = u64::from_str_radix(declared, 16).map_err(|e| format!("bad checksum: {e}"))?;
    if declared != checksum(body.as_bytes()) {
        return Err("manifest self-checksum mismatch".into());
    }

    let mut lines = body.lines().skip(1);
    let gen_line = lines.next().ok_or("manifest missing generation line")?;
    let declared_gen: u64 = gen_line
        .strip_prefix("generation ")
        .and_then(|s| s.parse().ok())
        .ok_or("bad generation line")?;
    if declared_gen != generation {
        return Err(format!(
            "manifest names generation {declared_gen}, file says {generation}"
        ));
    }
    let step_line = lines.next().ok_or("manifest missing step line")?;
    let step: u64 = step_line
        .strip_prefix("step ")
        .and_then(|s| s.parse().ok())
        .ok_or("bad step line")?;

    let mut layers = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 7 || fields[0] != "layer" {
            return Err(format!("bad layer line {line:?}"));
        }
        let layer: usize = fields[1].parse().map_err(|_| "bad layer id".to_string())?;
        if layer != layers.len() {
            return Err(format!("layer records out of order at {layer}"));
        }
        let steps: u64 = fields[2]
            .parse()
            .map_err(|_| "bad layer steps".to_string())?;
        let parse_blob = |kind: &str, len: &str, sum: &str| -> Result<(usize, u64), String> {
            let len = len.parse().map_err(|_| format!("bad {kind} length"))?;
            let sum = u64::from_str_radix(sum, 16).map_err(|_| format!("bad {kind} checksum"))?;
            Ok((len, sum))
        };
        let master = parse_blob("master", fields[3], fields[4])?;
        let moments = parse_blob("moments", fields[5], fields[6])?;
        layers.push((steps, [master, moments]));
    }
    if layers.len() != layer_params.len() {
        return Err(format!(
            "checkpoint has {} layers, engine has {}",
            layers.len(),
            layer_params.len()
        ));
    }
    // The optimizer steps these blobs where the store holds them, so a
    // checkpoint of another shape is refused here, not found there.
    for (layer, ((_, [master, moments]), &n)) in layers.iter().zip(layer_params).enumerate() {
        if (master.0, moments.0) != (4 * n, 8 * n) {
            return Err(format!(
                "layer {layer} has {} B of master and {} B of moments, \
                 the engine's layer has {n} parameters",
                master.0, moments.0
            ));
        }
    }
    Ok(Manifest { step, layers })
}

/// Reads layer `layer`'s `kind` blob of `generation` and verifies it
/// against the `(length, checksum)` its manifest declares.
fn read_blob(
    dir: &Path,
    generation: u64,
    layer: usize,
    kind: &str,
    (len, sum): (usize, u64),
) -> Result<Vec<u8>, String> {
    let bytes = fs::read(blob_path(dir, generation, layer, kind))
        .map_err(|e| format!("layer {layer} {kind} unreadable: {e}"))?;
    if bytes.len() != len {
        return Err(format!(
            "layer {layer} {kind} is {} bytes, manifest says {len} (torn write?)",
            bytes.len()
        ));
    }
    if checksum(&bytes) != sum {
        return Err(format!("layer {layer} {kind} checksum mismatch"));
    }
    Ok(bytes)
}

/// Verifies generation `generation` blob by blob, staging each for the
/// commit as it passes ([`Staged`]): the loader holds the blobs bound
/// for host memory, never one bound for the SSD tier. A P16 that rests
/// on the SSD tier is re-derived from its master on the way. A blob that
/// fails verification is [`RatelError::CheckpointCorrupt`]; on any
/// failure the shadows written so far are removed, so the engine is
/// untouched.
fn stage_generation(
    engine: &RatelEngine,
    dir: &Path,
    generation: u64,
    layer_params: &[usize],
) -> Result<(Manifest, Vec<Staged>), RatelError> {
    let manifest =
        read_manifest(dir, generation, layer_params).map_err(RatelError::CheckpointCorrupt)?;
    let mut staged = Vec::new();
    match stage_blobs(engine, dir, generation, &manifest, &mut staged) {
        Ok(()) => Ok((manifest, staged)),
        Err(e) => {
            discard(&engine.store, &staged);
            Err(e)
        }
    }
}

/// [`stage_generation`]'s walk over the blobs, pushing each onto
/// `staged` as it passes.
fn stage_blobs(
    engine: &RatelEngine,
    dir: &Path,
    generation: u64,
    manifest: &Manifest,
    staged: &mut Vec<Staged>,
) -> Result<(), RatelError> {
    let store = &engine.store;
    let read = |layer, kind, declared| {
        read_blob(dir, generation, layer, kind, declared).map_err(RatelError::CheckpointCorrupt)
    };
    for (layer, &(_, [master, moments])) in manifest.layers.iter().enumerate() {
        let bytes = read(layer, "master", master)?;
        let p16 = (engine.plan.placement == Placement::Ssd).then(|| f32_le_to_f16_le(&bytes));
        staged.push(Staged::new(store, MASTER, layer, bytes)?);
        if let Some(p16) = p16 {
            staged.push(Staged::new(store, P16, layer, p16)?);
        }
        let bytes = read(layer, "moments", moments)?;
        staged.push(Staged::new(store, MOMENTS, layer, bytes)?);
    }
    Ok(())
}

/// Loads the newest verifiable generation into the engine, falling back
/// through older generations when verification fails.
pub(crate) fn load(engine: &mut RatelEngine, dir: &Path) -> Result<(), RatelError> {
    let gens = generations(dir);
    if gens.is_empty() {
        return Err(RatelError::CheckpointCorrupt(format!(
            "no checkpoint manifests in {}",
            dir.display()
        )));
    }
    let layer_params: Vec<usize> = (0..engine.layer_count())
        .map(|layer| engine.layer_param_count(layer))
        .collect();
    let mut failures = Vec::new();
    for &generation in gens.iter().rev() {
        match stage_generation(engine, dir, generation, &layer_params) {
            Ok((manifest, staged)) => {
                // All blobs verified — only now touch engine state.
                engine.step = manifest.step;
                for (layer, (steps, _)) in manifest.layers.into_iter().enumerate() {
                    engine.layer_steps[layer] = steps;
                }
                // Every blob is replaced where it rests, so a commit that
                // fails leaves each key with a whole blob.
                let mut blobs = staged.into_iter();
                let committed = blobs.by_ref().try_for_each(|b| b.commit(&engine.store));
                if let Err(e) = committed {
                    discard(&engine.store, blobs.as_slice());
                    return Err(e.into());
                }
                if !failures.is_empty() {
                    // Restored, but only by falling back past a torn
                    // generation — leave a postmortem trail.
                    ratel_obs::dump_postmortem("checkpoint fallback");
                }
                return Ok(());
            }
            Err(RatelError::CheckpointCorrupt(reason)) => {
                // Fallback: this generation failed verification and the
                // loader walks back to its predecessor. Flight-record it
                // (with the cumulative counter) so a restore that
                // silently skipped a torn generation is visible later.
                ratel_obs::flight().record(
                    ratel_obs::EventKind::CheckpointFallback,
                    0,
                    &reason,
                    0,
                    generation,
                );
                ratel_obs::registry()
                    .counter(
                        "ratel_checkpoint_fallbacks_total",
                        "Checkpoint generations that failed verification on load",
                    )
                    .inc();
                failures.push(format!("generation {generation}: {reason}"));
            }
            // The store failed, not the checkpoint: no older generation
            // is any better.
            Err(e) => return Err(e),
        }
    }
    ratel_obs::dump_postmortem("checkpoint fallback exhausted all generations");
    Err(RatelError::CheckpointCorrupt(format!(
        "no loadable generation in {}: {}",
        dir.display(),
        failures.join("; ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable_and_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        let a = fnv64(b"ratel");
        let mut flipped = b"ratel".to_vec();
        flipped[0] ^= 1;
        assert_ne!(a, fnv64(&flipped));
    }

    /// `len` seeded pseudo-random bytes.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum_is_pinned() {
        // Part of the `v2` format: a change here is a format change.
        assert_eq!(checksum(b""), 0x2065_6390_22cb_e46e);
        assert_eq!(checksum(b"ratel-checkpoint v2\n"), 0x8365_00e6_78f2_f060);
    }

    #[test]
    fn checksum_catches_every_two_bit_flip() {
        // 71 B leaves seven tail bytes after eight words.
        for (len, seed) in [(64, 1), (71, 2), (256, 3)] {
            let mut bytes = seeded(len, seed);
            let clean = checksum(&bytes);
            let bits = 8 * len;
            for a in 0..bits {
                bytes[a / 8] ^= 1 << (a % 8);
                for b in a + 1..bits {
                    bytes[b / 8] ^= 1 << (b % 8);
                    assert_ne!(checksum(&bytes), clean, "{len} B, bits {a} and {b}");
                    bytes[b / 8] ^= 1 << (b % 8);
                }
                bytes[a / 8] ^= 1 << (a % 8);
            }
        }
    }

    #[test]
    fn checksum_catches_every_byte_value_at_every_offset() {
        // Four whole lanes' words, one more word and a three-byte tail.
        let mut bytes = seeded(43, 4);
        let clean = checksum(&bytes);
        for at in 0..bytes.len() {
            let was = bytes[at];
            for value in (0..=u8::MAX).filter(|&v| v != was) {
                bytes[at] = value;
                assert_ne!(checksum(&bytes), clean, "byte {at} = {value}");
            }
            bytes[at] = was;
        }
    }

    #[test]
    fn checksum_counts_a_trailing_zero_byte() {
        for len in [0, 5, 8, 31, 32, 64] {
            let bytes = seeded(len, 5);
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(checksum(&bytes), checksum(&longer), "{len} B");
        }
    }

    #[test]
    fn generation_listing_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("ratel-genlist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(manifest_path(&dir, 2), "x").unwrap();
        fs::write(manifest_path(&dir, 10), "x").unwrap();
        fs::write(dir.join("manifest-gBAD.txt"), "x").unwrap();
        fs::write(dir.join("notes.txt"), "x").unwrap();
        assert_eq!(generations(&dir), vec![2, 10]);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::engine::data::random_batch;
    use crate::engine::EngineConfig;
    use ratel_tensor::GptConfig;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ratel-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run_whatever_the_placement() {
        let model = GptConfig::tiny();
        // Uncapped every master is host-resident; under a capacity the
        // states rest on the SSD tier.
        let mk = |host_capacity: Option<u64>| {
            let config = EngineConfig {
                host_capacity,
                ..EngineConfig::tiny()
            };
            RatelEngine::new(config).unwrap()
        };
        let (resident, ssd) = (None, Some(1 << 30));
        let batches: Vec<_> = (0..6).map(|s| random_batch(&model, 400 + s)).collect();

        // Uninterrupted run.
        let mut straight = mk(resident);
        for (t, y) in &batches {
            straight.train_step(t, y).unwrap();
        }

        // Run 3 steps, checkpoint, resume in a fresh engine: one that
        // places its states the same way, then saved with every master
        // host-resident and resumed under the paper's placement, and the
        // reverse.
        let pairs = [(resident, resident), (resident, ssd), (ssd, resident)];
        for (i, (saved_with, resumed_with)) in pairs.into_iter().enumerate() {
            let dir = temp_dir(&format!("resume-{i}"));
            let mut first = mk(saved_with);
            for (t, y) in &batches[..3] {
                first.train_step(t, y).unwrap();
            }
            first.save_checkpoint(&dir).unwrap();
            drop(first);
            let mut resumed = mk(resumed_with);
            resumed.load_checkpoint(&dir).unwrap();
            for (t, y) in &batches[3..] {
                resumed.train_step(t, y).unwrap();
            }

            for l in 0..straight.layer_count() {
                assert_eq!(
                    straight.master_params(l).unwrap(),
                    resumed.master_params(l).unwrap(),
                    "layer {l} diverged, saved with {saved_with:?} resumed with {resumed_with:?}"
                );
                assert_eq!(
                    straight.p16_params(l).unwrap(),
                    resumed.p16_params(l).unwrap()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_load_that_fails_midway_leaves_every_blob_in_place() {
        use ratel_storage::fault::{FaultKind, FaultOp, FaultPlan};
        use ratel_storage::StorageError;
        let model = GptConfig::tiny();
        // The paper's placement: a P16 at rest to re-publish.
        let mk = || {
            let config = EngineConfig {
                host_capacity: Some(1 << 30),
                ..EngineConfig::tiny()
            };
            RatelEngine::new(config).unwrap()
        };
        let dir = temp_dir("midway");
        let mut saved = mk();
        let (t, y) = random_batch(&model, 77);
        saved.train_step(&t, &y).unwrap();
        saved.save_checkpoint(&dir).unwrap();

        // The write that stages layer 1's re-derived P16 gives up.
        let mut engine = mk();
        let plan = FaultPlan::new();
        plan.fault_on_key_op(
            &key(BlobKind::P16Loading, 1),
            FaultOp::Write,
            FaultKind::Permanent,
        );
        engine.store.set_fault_plan(Some(std::sync::Arc::new(plan)));
        let err = engine.load_checkpoint(&dir).unwrap_err();
        assert!(
            matches!(err, RatelError::Storage(StorageError::Faulted { .. })),
            "{err}"
        );
        // Nothing went missing: every blob of every layer still reads,
        // and the load, retried on a healthy store, completes.
        engine.store.set_fault_plan(None);
        for l in 0..engine.layer_count() {
            engine.master_params(l).unwrap();
            engine.p16_params(l).unwrap();
            assert!(engine.store.contains(&key(BlobKind::Moments, l)));
        }
        engine.load_checkpoint(&dir).unwrap();
        for l in 0..engine.layer_count() {
            assert_eq!(
                engine.master_params(l).unwrap(),
                saved.master_params(l).unwrap()
            );
            assert_eq!(engine.p16_params(l).unwrap(), saved.p16_params(l).unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_generation_that_fails_midway_leaves_no_shadow_behind() {
        // Both placements: under the paper's every blob is staged on the
        // SSD tier before the last one fails to verify; uncapped the
        // masters and rotated moments are held in memory instead.
        for host_capacity in [Some(1 << 30), None] {
            let config = EngineConfig {
                host_capacity,
                ..EngineConfig::tiny()
            };
            let dir = temp_dir(&format!("shadow-{}", host_capacity.is_some()));
            let mut engine = RatelEngine::new(config).unwrap();
            engine.save_checkpoint(&dir).unwrap();
            let last = engine.layer_count() - 1;
            let victim = blob_path(&dir, 1, last, "moments");
            let bytes = fs::read(&victim).unwrap();
            fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();

            let tiers = [Tier::Gpu, Tier::Host, Tier::Ssd];
            let used = tiers.map(|tier| engine.store.used(tier));
            let err = engine.load_checkpoint(&dir).unwrap_err();
            assert!(matches!(err, RatelError::CheckpointCorrupt(_)), "{err}");
            assert_eq!(tiers.map(|tier| engine.store.used(tier)), used);
            let loading = [MASTER, MOMENTS, P16].map(|(_, shadow)| shadow);
            let shadows: Vec<BlobKey> = (0..engine.layer_count())
                .flat_map(|layer| loading.map(|kind| key(kind, layer)))
                .filter(|shadow| engine.store.contains(shadow))
                .collect();
            assert!(shadows.is_empty(), "{shadows:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_of_another_shape_is_refused_untouched() {
        // Same layer count, wider layers: every blob verifies against
        // its manifest, none fits the engine.
        let dir = temp_dir("shape");
        let mut wide = EngineConfig::tiny();
        wide.model.hidden *= 2;
        RatelEngine::new(wide)
            .unwrap()
            .save_checkpoint(&dir)
            .unwrap();
        let mut engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let before = engine.master_params(1).unwrap();
        match engine.load_checkpoint(&dir) {
            Err(RatelError::CheckpointCorrupt(why)) => {
                assert!(why.contains("the engine's layer has"), "{why}")
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
        assert_eq!(engine.master_params(1).unwrap(), before);
        let (t, y) = random_batch(&GptConfig::tiny(), 1);
        engine.train_step(&t, &y).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_files_are_complete() {
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("files");
        engine.save_checkpoint(&dir).unwrap();
        assert!(dir.join("manifest-g1.txt").exists());
        for l in 0..engine.layer_count() {
            assert!(dir.join(format!("g1-layer{l}.master")).exists());
            assert!(dir.join(format!("g1-layer{l}.moments")).exists());
        }
        // No temp droppings survive a successful save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_accumulate_and_prune_to_two() {
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("gens");
        for _ in 0..4 {
            engine.save_checkpoint(&dir).unwrap();
        }
        assert_eq!(generations(&dir), vec![3, 4]);
        // Pruned generations leave no blob files behind.
        assert!(!dir.join("g1-layer0.master").exists());
        assert!(!dir.join("manifest-g2.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_latest_generation_falls_back_to_previous() {
        let model = GptConfig::tiny();
        let mk = || RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("fallback");
        let mut engine = mk();
        let (t, y) = random_batch(&model, 900);
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 1 (good)
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 2
        let good_master = engine.master_params(0).unwrap();

        // "Kill mid-checkpoint": generation 2's blob is torn after the
        // manifest committed — truncate it behind the manifest's back.
        let victim = dir.join("g2-layer0.master");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let mut resumed = mk();
        resumed.load_checkpoint(&dir).unwrap();
        // Generation 2 fails verification; generation 1 loads.
        assert_eq!(resumed.step, 1, "fell back to the step-1 generation");
        assert_ne!(resumed.master_params(0).unwrap(), good_master);

        // With generation 1 also gone, corruption is an error — never a
        // silently wrong model.
        std::fs::remove_file(dir.join("manifest-g1.txt")).unwrap();
        let mut fresh = mk();
        let err = fresh.load_checkpoint(&dir).unwrap_err();
        assert!(matches!(err, RatelError::CheckpointCorrupt(_)), "{err}");
        assert!(err.to_string().contains("generation 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites `generation`'s manifest as the `v1` format wrote it: the
    /// same records, each blob and the body summed with FNV-1a.
    fn downgrade_to_v1(dir: &Path, generation: u64) {
        let path = manifest_path(dir, generation);
        let text = fs::read_to_string(&path).unwrap();
        let mut body = String::from("ratel-checkpoint v1\n");
        for line in text.lines().skip(1) {
            let mut fields: Vec<String> = line.split(' ').map(String::from).collect();
            match fields[0].as_str() {
                "checksum" => break,
                "layer" => {
                    let layer: usize = fields[1].parse().unwrap();
                    for (at, kind) in [(4, "master"), (6, "moments")] {
                        let bytes = fs::read(blob_path(dir, generation, layer, kind)).unwrap();
                        fields[at] = format!("{:016x}", fnv64(&bytes));
                    }
                }
                _ => {}
            }
            body += &(fields.join(" ") + "\n");
        }
        fs::write(
            &path,
            format!("{body}checksum {:016x}\n", fnv64(body.as_bytes())),
        )
        .unwrap();
    }

    #[test]
    fn a_v1_manifest_is_refused_by_name() {
        let model = GptConfig::tiny();
        let mk = || RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("v1");
        let mut engine = mk();
        let (t, y) = random_batch(&model, 901);
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 1
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 2

        // The newest generation is v1: the load falls back to the v2 one.
        downgrade_to_v1(&dir, 2);
        let mut resumed = mk();
        resumed.load_checkpoint(&dir).unwrap();
        assert_eq!(resumed.step, 1, "fell back to the step-1 generation");

        // Only v1 left: refused, by version.
        downgrade_to_v1(&dir, 1);
        match mk().load_checkpoint(&dir) {
            Err(RatelError::CheckpointCorrupt(why)) => {
                assert!(why.contains("\"ratel-checkpoint v1\""), "{why}")
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
