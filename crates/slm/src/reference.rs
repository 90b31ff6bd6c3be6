//! Retained pre-interning reference implementations.
//!
//! The interned-symbol rewrite of the model layer (postings-list TF-IDF,
//! symbol-keyed n-grams) is required to be *output-identical* to the
//! string-based originals. This module keeps the originals alive so the
//! equivalence suites, the criterion benches, and `perfsnap` can compare
//! against them at runtime:
//!
//! * the linear-scan retrieval reference lives on the index itself as
//!   [`TfIdfIndex::try_query_linear`](crate::tfidf::TfIdfIndex::try_query_linear)
//!   (it shares the built index, so only the scan differs);
//! * [`StringNgram`] is the old n-gram model verbatim: context tables
//!   keyed on `Vec<String>` windows of `tokenize_lower` output.
//!
//! Nothing here is part of the supported API surface.

use dda_core::tokenize::tokenize_lower;
use std::collections::HashMap;

/// The pre-interning order-`N` token language model, kept verbatim as the
/// equivalence/benchmark reference for [`NgramModel`](crate::NgramModel).
#[derive(Debug, Clone)]
pub struct StringNgram {
    order: usize,
    /// context → (next-token counts, total).
    counts: HashMap<Vec<String>, (HashMap<String, u64>, u64)>,
    vocab: HashMap<String, ()>,
    smoothing_k: f64,
    trained_tokens: u64,
}

impl StringNgram {
    /// Creates an untrained model of the given order (≥ 1).
    pub fn new(order: usize) -> Self {
        StringNgram {
            order: order.max(1),
            counts: HashMap::new(),
            vocab: HashMap::new(),
            smoothing_k: 0.05,
            trained_tokens: 0,
        }
    }

    /// Number of tokens seen during training.
    pub fn trained_tokens(&self) -> u64 {
        self.trained_tokens
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Trains on one text (token stream with boundary padding).
    pub fn train(&mut self, text: &str) {
        let toks = padded(text, self.order);
        for w in toks.windows(self.order) {
            let (ctx, next) = w.split_at(self.order - 1);
            let e = self
                .counts
                .entry(ctx.to_vec())
                .or_insert_with(|| (HashMap::new(), 0));
            *e.0.entry(next[0].clone()).or_insert(0) += 1;
            e.1 += 1;
            self.vocab.entry(next[0].clone()).or_insert(());
        }
        self.trained_tokens += toks.len().saturating_sub(self.order) as u64;
    }

    /// Probability of `next` given `ctx` (add-k smoothed).
    fn prob(&self, ctx: &[String], next: &str) -> f64 {
        let v = self.vocab.len().max(2) as f64;
        match self.counts.get(ctx) {
            Some((nexts, total)) => {
                let c = nexts.get(next).copied().unwrap_or(0) as f64;
                (c + self.smoothing_k) / (*total as f64 + self.smoothing_k * v)
            }
            None => 1.0 / v,
        }
    }

    /// Cross-entropy (nats/token) of `text` under the model.
    pub fn cross_entropy(&self, text: &str) -> f64 {
        let toks = padded(text, self.order);
        if toks.len() < self.order {
            return (self.vocab.len().max(2) as f64).ln();
        }
        let mut total = 0.0;
        let mut n = 0usize;
        for w in toks.windows(self.order) {
            let (ctx, next) = w.split_at(self.order - 1);
            total += -self.prob(ctx, &next[0]).ln();
            n += 1;
        }
        total / n.max(1) as f64
    }

    /// Mean cross-entropy over several held-out texts.
    pub fn loss(&self, texts: &[&str]) -> f64 {
        if texts.is_empty() {
            return 0.0;
        }
        texts.iter().map(|t| self.cross_entropy(t)).sum::<f64>() / texts.len() as f64
    }
}

fn padded(text: &str, order: usize) -> Vec<String> {
    let mut toks = vec!["<s>".to_owned(); order.saturating_sub(1)];
    toks.extend(tokenize_lower(text));
    toks.push("</s>".to_owned());
    toks
}
