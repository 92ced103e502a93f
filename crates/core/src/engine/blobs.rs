//! Blob keys and accessors: where each layer's states live in the tiered
//! store, and the helpers that move them in and out of it.

use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::{decode_f16, decode_f32, encode_f16, encode_f32};
use ratel_tensor::{Adam, GptModel, ParamLayer};

use super::RatelEngine;
use crate::error::RatelError;

/// Storage keys for a layer's blobs. Layer ids: 0 = embedding, 1..=L =
/// blocks, L+1 = head.
pub(super) fn master_key(layer: usize) -> String {
    format!("layer{layer}/master")
}
pub(super) fn moments_key(layer: usize) -> String {
    format!("layer{layer}/moments")
}
pub(super) fn p16_key(layer: usize) -> String {
    format!("layer{layer}/p16")
}
/// A layer's P16 held in the host tier for one decode call (see
/// `generate.rs`).
pub(super) fn pinned_key(layer: usize) -> String {
    format!("layer{layer}/p16#pinned")
}
pub(super) fn grad_key(layer: usize) -> String {
    format!("layer{layer}/grad")
}
/// A block's saved activations: the whole blob, or — for a blob that
/// moves in chunks — chunk `c` of it (`block{b}/acts#c`).
pub(super) fn act_key(block: usize, chunk: Option<usize>) -> String {
    match chunk {
        Some(c) => format!("block{block}/acts#{c}"),
        None => format!("block{block}/acts"),
    }
}
pub(super) fn ckpt_key(layer: usize) -> String {
    format!("layer{layer}/ckpt")
}
pub(super) fn accum_key(layer: usize) -> String {
    format!("layer{layer}/grad-accum")
}

/// Loads flat parameters into layer `layer` of the model skeleton
/// (0 = embedding, 1..=L = blocks, L+1 = head).
pub(super) fn set_layer_params(model: &mut GptModel, layer: usize, flat: &[f32]) {
    let l = model.blocks.len();
    if layer == 0 {
        model.embedding.set_params_flat(flat);
    } else if layer <= l {
        model.blocks[layer - 1].set_params_flat(flat);
    } else {
        model.head.set_params_flat(flat);
    }
}

/// Stores an f16 blob in the GPU tier and swaps it to `target`.
pub(super) fn offload_f16(
    store: &TieredStore,
    key: &str,
    bytes: Vec<u8>,
    target: Tier,
) -> Result<(), StorageError> {
    store.put(key, Tier::Gpu, bytes)?;
    store.move_to(key, target)?;
    Ok(())
}

/// Fetches an f16 blob back to the GPU tier and takes it out of the
/// store, returning the bytes.
pub(super) fn fetch_f16(store: &TieredStore, key: &str) -> Result<Vec<u8>, StorageError> {
    store.move_to(key, Tier::Gpu)?;
    store.take(key)
}

impl RatelEngine {
    pub(super) fn layer_params_flat(&self, layer: usize) -> Vec<f32> {
        let l = self.config.model.layers;
        if layer == 0 {
            self.model.embedding.params_flat()
        } else if layer <= l {
            self.model.blocks[layer - 1].params_flat()
        } else {
            self.model.head.params_flat()
        }
    }

    pub(super) fn init_states(&self) -> Result<(), StorageError> {
        // All initial states stream to the SSD tier in one coalesced
        // batch per layer kind: three sequential segment writes instead of
        // 3 * layer_count random blob writes.
        let mut masters = Vec::new();
        let mut moments = Vec::new();
        let mut p16s = Vec::new();
        for layer in 0..self.layer_count() {
            let master = self.layer_params_flat(layer);
            // P16 is what the GPU computes with: the f16 rounding of the
            // master, exactly what the optimizer will emit after steps.
            p16s.push((p16_key(layer), encode_f16(&master)));
            moments.push((
                moments_key(layer),
                encode_f32(&Adam::new(master.len()).to_flat()),
            ));
            masters.push((master_key(layer), encode_f32(&master)));
        }
        self.store.put_batch(Tier::Ssd, masters)?;
        self.store.put_batch(Tier::Ssd, moments)?;
        self.store.put_batch(Tier::Ssd, p16s)?;
        Ok(())
    }

    /// Loads a layer's P16 blob into the GPU arena, decodes it into the
    /// layer skeleton, and removes the staged copy (read-only streaming).
    /// The bytes come from the layer's pinned host copy while a decode
    /// call holds one, from the SSD tier otherwise.
    pub(super) fn stage_params(&mut self, layer: usize) -> Result<(), StorageError> {
        let pinned = pinned_key(layer);
        let key = if self.store.contains(&pinned) {
            pinned
        } else {
            p16_key(layer)
        };
        let staged = format!("{}#staged", p16_key(layer));
        self.store.copy_to(&key, &staged, Tier::Gpu)?;
        let flat = decode_f16(&self.store.take(&staged)?);
        set_layer_params(&mut self.model, layer, &flat);
        Ok(())
    }

    /// Reads the current master (f32) parameters of a layer — for tests
    /// and checkpoint export.
    pub fn master_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f32(&self.store.read(&master_key(layer))?))
    }

    /// Reads the current P16 compute copy of a layer (decoded to f32).
    pub fn p16_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f16(&self.store.read(&p16_key(layer))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn model_states_live_on_the_ssd_tier() {
        let config = EngineConfig::tiny();
        let engine = RatelEngine::new(config).unwrap();
        let params = engine.total_params() as u64;
        // P32 (4) + OS32 (8) + P16 (2) = 14 bytes/param at rest.
        assert_eq!(engine.ssd_state_bytes(), params * 14);
        assert_eq!(engine.store().used(Tier::Gpu), 0);
        assert_eq!(engine.store().used(Tier::Host), 0);
    }
}
