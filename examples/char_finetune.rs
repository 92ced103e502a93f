//! Fine-tune on real text, out of core: a character-level GPT memorizes
//! a small corpus through the full Ratel pipeline (profiling, planned
//! activation swapping, active gradient offloading, dynamic loss scaling)
//! and then *generates* a continuation from a prompt — all while the
//! optimizer state lives as files in the SSD tier.
//!
//! Run with: `cargo run --release --example char_finetune`

use ratel_repro::core::api::Ratel;
use ratel_repro::core::engine::data::{corpus_batches, CharVocab};
use ratel_repro::core::engine::scaler::ScalePolicy;
use ratel_repro::prelude::*;

// A small training corpus (original text, heavy on repetition so a tiny
// model can learn its patterns quickly).
const CORPUS: &str =
    "the ratel moves the tensors to the ssd and hides the optimizer behind the backward pass. \
the ratel moves the tensors to the ssd and hides the optimizer behind the backward pass. \
the ratel moves the tensors to the ssd and hides the optimizer behind the backward pass. \
the ratel moves the tensors to the ssd and hides the optimizer behind the backward pass. \
the ratel moves the tensors to the ssd and hides the optimizer behind the backward pass. \
the ratel moves the tensors to the ssd and hides the optimizer behind the backward pass. ";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vocab = CharVocab::from_corpus(CORPUS);
    let model = GptConfig {
        vocab: vocab.len(),
        seq: 48,
        hidden: 96,
        heads: 4,
        layers: 4,
        batch: 8,
    };
    println!(
        "corpus: {} chars, {} distinct | model: {} blocks, hidden {}",
        CORPUS.len(),
        vocab.len(),
        model.layers,
        model.hidden
    );

    let mut trainer = Ratel::init(model)
        .seed(5)
        .learning_rate(3e-3)
        .loss_scale(ScalePolicy::dynamic_default())
        .build()?;
    println!("planned decisions: {:?}\n", trainer.decisions());

    let batches = corpus_batches(CORPUS, &vocab, &model, 6);
    for epoch in 0..40 {
        let mean = trainer.train_epochs(&batches, 1)?;
        if epoch % 10 == 0 || epoch == 39 {
            println!("epoch {epoch:>2}: mean loss {mean:.3}");
        }
    }

    // A prompt longer than one context window, so generation starts with
    // a fully populated window (no padding the model never trained on).
    let prompt_text = "backward pass. the ratel moves the tensors to the ";
    let prompt = vocab.encode(prompt_text);
    let generated = trainer.generate(&prompt, 40)?;
    println!("\nprompt:    {prompt_text:?}");
    println!("generated: {:?}", vocab.decode(&generated));
    Ok(())
}
