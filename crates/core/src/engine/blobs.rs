//! Blob keys and accessors: where each layer's states live in the tiered
//! store, and the helpers that move them in and out of it.

use ratel_sim::{BlobKey, BlobKind};
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::{decode_f16, decode_f32, f32_le_to_f16_le};
use ratel_tensor::{CrossEntropy, Embedding, GptConfig, GptModel, ParamLayer, TransformerBlock};

use super::RatelEngine;
use crate::error::RatelError;
use crate::schedule::{LayerTask, Placement};

/// The store's name of layer `layer`'s blob of kind `kind` — the only
/// name a blob has while the engine runs. Layer ids: 0 = embedding,
/// 1..=L = blocks, L+1 = head. A blob that moves in chunks adds the
/// chunk ([`BlobKey::chunk`]).
pub(super) fn key(kind: BlobKind, layer: usize) -> BlobKey {
    BlobKey::shared(kind, layer)
}

/// The tier a layer's moments rest in between steps: host memory where
/// its handler rotates, the SSD tier otherwise.
pub(super) fn moments_tier(task: &LayerTask) -> Tier {
    if task.moments_in_host() {
        Tier::Host
    } else {
        Tier::Ssd
    }
}

/// The f32 tensors the kernels compute on: an embedding, **one** block
/// and a head, whatever the model's depth. They hold no state between
/// uses — [`load_staged_params`] decodes a layer's P16 into its slot
/// before every forward and backward kernel.
pub(super) struct LayerScratch {
    /// Blocks of the model the scratch serves (its layers `1..=blocks`).
    blocks: usize,
    pub(super) embedding: Embedding,
    pub(super) block: TransformerBlock,
    pub(super) head: CrossEntropy,
}

impl LayerScratch {
    /// Scratch shaped for `config`'s layers (their initial values are
    /// never read).
    pub(super) fn new(config: GptConfig) -> Self {
        LayerScratch {
            blocks: config.layers,
            embedding: GptModel::embedding_of(config, 0),
            block: GptModel::block_of(config, 0, 0),
            head: GptModel::head_of(config, 0),
        }
    }

    /// The slot engine layer `layer` computes in (0 = embedding,
    /// 1..=L = blocks, L+1 = head).
    fn slot_mut(&mut self, layer: usize) -> &mut dyn ParamLayer {
        match layer {
            0 => &mut self.embedding,
            _ if layer <= self.blocks => &mut self.block,
            _ => &mut self.head,
        }
    }
}

/// The initial f32 master of engine layer `layer`: the parameters
/// `GptModel::new(config, seed)` gives it, built alone.
fn initial_master(config: GptConfig, seed: u64, layer: usize) -> Vec<u8> {
    match layer {
        0 => GptModel::embedding_of(config, seed).params_f32_le(),
        _ if layer <= config.layers => GptModel::block_of(config, seed, layer - 1).params_f32_le(),
        _ => GptModel::head_of(config, seed).params_f32_le(),
    }
}

/// Takes the staged P16 copy `staged` out of the store and decodes it
/// straight into layer `layer`'s scratch slot — the one way parameters
/// reach the compute kernels, in every DAG the engine runs.
pub(super) fn load_staged_params(
    store: &TieredStore<BlobKey>,
    scratch: &mut LayerScratch,
    layer: usize,
    staged: BlobKey,
) -> Result<(), StorageError> {
    let p16 = store.take(&staged)?;
    scratch.slot_mut(layer).set_params_f16_le(&p16);
    Ok(())
}

/// Rounds layer `layer`'s f32 master to P16 where the store holds it and
/// lands the copy in `tier` under `key`, through host memory: how a
/// host-resident master reaches the arena (and a decode call's pin), and
/// how an SSD-placed layer's handler publishes its fresh P16. The bits
/// are the same either way, so a step does not depend on the placement.
pub(super) fn publish_p16(
    store: &TieredStore<BlobKey>,
    layer: usize,
    p16: BlobKey,
    tier: Tier,
) -> Result<(), StorageError> {
    let master = key(BlobKind::Master, layer);
    let bytes = store.modify([&master], |[master]| f32_le_to_f16_le(master))?;
    store.put(&p16, Tier::Host, bytes)?;
    store.move_to(&p16, tier)
}

/// Stores an f16 blob in the GPU tier and swaps it to `target`.
pub(super) fn offload_f16(
    store: &TieredStore<BlobKey>,
    key: BlobKey,
    bytes: Vec<u8>,
    target: Tier,
) -> Result<(), StorageError> {
    store.put(&key, Tier::Gpu, bytes)?;
    store.move_to(&key, target)
}

impl RatelEngine {
    /// Places every layer's states where the plan says they rest, one
    /// layer at a time, each built alone from its own seed: the build
    /// holds one layer's 14 B/param in flight, never the whole model's.
    /// An SSD-placed layer's master, moments and P16 are put on the SSD
    /// tier one at a time, each into a file of its own; a host-master
    /// layer's master stays in host memory and its moments go to the SSD
    /// tier — or stay in host memory too, where its handler rotates.
    pub(super) fn init_states(&self) -> Result<(), StorageError> {
        for (layer, task) in self.plan.step.spec.layers.iter().enumerate() {
            let master = initial_master(self.config.model, self.config.seed, layer);
            // Fresh Adam moments: `[m..., v...]`, all zero.
            let moments = vec![0u8; master.len() * 2];
            match self.plan.placement {
                Placement::Ssd => {
                    // P16 is what the GPU computes with: the f16 rounding
                    // of the master, exactly what the optimizer will emit
                    // after steps.
                    let p16 = f32_le_to_f16_le(&master);
                    (self.store).put(&key(BlobKind::Master, layer), Tier::Ssd, master)?;
                    (self.store).put(&key(BlobKind::Moments, layer), Tier::Ssd, moments)?;
                    (self.store).put(&key(BlobKind::Param16, layer), Tier::Ssd, p16)?;
                }
                Placement::HostMaster => {
                    let tier = moments_tier(task);
                    (self.store).put(&key(BlobKind::Master, layer), Tier::Host, master)?;
                    (self.store).put(&key(BlobKind::Moments, layer), tier, moments)?;
                }
            }
        }
        Ok(())
    }

    /// Reads the current master (f32) parameters of a layer — for tests
    /// and checkpoint export.
    pub fn master_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f32(&self.store.read(&key(BlobKind::Master, layer))?))
    }

    /// The current P16 compute copy of a layer (decoded to f32): the
    /// blob at rest on the SSD tier, or what a fetch rounds from the
    /// host-resident master.
    pub fn p16_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        let p16 = match self.plan.placement {
            Placement::Ssd => self.store.read(&key(BlobKind::Param16, layer))?,
            Placement::HostMaster => {
                f32_le_to_f16_le(&self.store.read(&key(BlobKind::Master, layer))?)
            }
        };
        Ok(decode_f16(&p16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn model_states_rest_where_the_plan_places_them() {
        // Uncapped, every master is host-resident: P32 (4 B/param) in
        // host memory, OS32 (8) on the SSD tier — but for the two layers
        // whose gradients arrive last, whose moments rest in host memory
        // too — and no P16 at rest.
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let params = engine.total_params() as u64;
        let rotated = 8 * (engine.layer_param_count(0) + engine.layer_param_count(1)) as u64;
        assert_eq!(engine.placement(), Placement::HostMaster);
        assert_eq!(engine.ssd_state_bytes(), params * 8 - rotated);
        assert_eq!(engine.store().used(Tier::Host), params * 4 + rotated);
        assert_eq!(engine.store().used(Tier::Host), engine.host_state_bytes());
        assert_eq!(engine.store().used(Tier::Gpu), 0);

        // A capped host pool gets the paper's placement: P32 (4) + OS32
        // (8) + P16 (2) = 14 bytes/param on the SSD tier.
        let mut capped = EngineConfig::tiny();
        capped.host_capacity = Some(1 << 30);
        let engine = RatelEngine::new(capped).unwrap();
        assert_eq!(engine.placement(), Placement::Ssd);
        assert_eq!(engine.ssd_state_bytes(), params * 14);
        assert_eq!(engine.store().used(Tier::Host), 0);
        assert_eq!(engine.store().used(Tier::Gpu), 0);
    }
}
