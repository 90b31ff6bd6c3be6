//! Sparse TF-IDF retrieval index over an inverted postings list.
//!
//! The simulatable LM's "attention": finetuning builds an index over
//! (instruct, input) pairs, and generation retrieves the best-matching
//! training examples for a query. Cosine similarity over TF-IDF weighted
//! token vectors.
//!
//! Tokens are interned [`Sym`]s (see `dda_core::intern`); documents are
//! sparse `(term, weight)` vectors sorted by term id, and [`finish`]
//! inverts them into a postings list (term → `(doc, weight)` in doc
//! order). [`try_query`] walks only the postings of the query's terms,
//! accumulating scores into a dense per-doc array and selecting the top-k
//! hits without sorting the full candidate set. The pre-postings linear
//! scan is retained as [`try_query_linear`] — the reference the
//! equivalence suites and the `perfsnap` guard compare against. Querying
//! before `finish` is a typed [`IndexError::NotFinished`].
//!
//! Determinism: all dot products accumulate term-by-term in ascending
//! term-id order (both paths), so scores are bit-identical between the
//! two implementations and across runs.
//!
//! [`finish`]: TfIdfIndex::finish
//! [`try_query`]: TfIdfIndex::try_query
//! [`try_query_linear`]: TfIdfIndex::try_query_linear

use dda_core::intern::Sym;
use dda_core::tokenize::tokenize_syms;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// Typed errors from the retrieval indexes.
///
/// [`TfIdfIndex`] queries used to panic on an unfinished index; the
/// fallible entry points ([`TfIdfIndex::try_query`],
/// [`TfIdfIndex::try_query_linear`]) return `NotFinished` instead so
/// callers that drive the index from untrusted request streams (the serve
/// daemon above all) can answer with a structured error. The sharded
/// index ([`crate::ShardedTfIdf`]) is fallible from day one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// A query arrived before [`TfIdfIndex::finish`] froze the index.
    NotFinished,
    /// An insert reused a document id already live in the index.
    DuplicateId(u64),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::NotFinished => write!(f, "call finish() before query()"),
            IndexError::DuplicateId(id) => write!(f, "document id {id} is already indexed"),
        }
    }
}

impl std::error::Error for IndexError {}

/// A scored retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the document in insertion order.
    pub doc: usize,
    /// Cosine similarity in `[0, 1]`.
    pub score: f64,
}

/// Best-score-first, ties broken by insertion order — the ordering both
/// query paths sort hits by.
fn hit_order(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc))
}

/// TF-IDF index over text documents.
#[derive(Debug, Clone, Default)]
pub struct TfIdfIndex {
    /// Per-document sparse `(term, tf)` vectors sorted by term id
    /// (IDF-weighted in place by `finish`). Retained after `finish` as the
    /// data the linear-scan reference walks.
    docs: Vec<Vec<(u32, f64)>>,
    /// Document norms (computed after `finish`).
    norms: Vec<f64>,
    /// Token symbol → dense term id (first-occurrence order).
    vocab: HashMap<Sym, u32>,
    /// Document frequency per term id.
    df: Vec<u32>,
    /// Inverted index: term id → `(doc, weight)` in ascending doc order.
    /// Built by `finish`.
    postings: Vec<Vec<(u32, f64)>>,
    finished: bool,
}

impl TfIdfIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        TfIdfIndex::default()
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    fn term_id(&mut self, sym: Sym) -> u32 {
        if let Some(id) = self.vocab.get(&sym) {
            return *id;
        }
        let id = self.vocab.len() as u32;
        self.vocab.insert(sym, id);
        self.df.push(0);
        id
    }

    /// Adds a document; returns its index.
    pub fn add(&mut self, text: &str) -> usize {
        let toks: Vec<Sym> = tokenize_syms(text).collect();
        self.add_tokens(&toks)
    }

    /// Adds a pre-tokenized document (the parallel-training entry point);
    /// returns its index.
    ///
    /// `add(text)` ≡ `add_tokens(&tokenize_syms(text).collect::<Vec<_>>())`.
    pub fn add_tokens(&mut self, toks: &[Sym]) -> usize {
        assert!(!self.finished, "index is frozen after finish()");
        let mut tf: HashMap<u32, f64> = HashMap::with_capacity(toks.len());
        for &sym in toks {
            let id = self.term_id(sym);
            *tf.entry(id).or_insert(0.0) += 1.0;
        }
        let mut doc: Vec<(u32, f64)> = tf.into_iter().collect();
        doc.sort_unstable_by_key(|(id, _)| *id);
        for (id, _) in &doc {
            self.df[*id as usize] += 1;
        }
        self.docs.push(doc);
        self.docs.len() - 1
    }

    /// Freezes the index: applies IDF weighting, precomputes norms, and
    /// builds the inverted postings list.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.docs.len().max(1) as f64;
        for doc in &mut self.docs {
            for (id, w) in doc.iter_mut() {
                let df = self.df[*id as usize].max(1) as f64;
                *w = (1.0 + w.ln()) * ((n + 1.0) / df).ln();
            }
        }
        self.norms = self
            .docs
            .iter()
            .map(|d| d.iter().map(|(_, w)| w * w).sum::<f64>().sqrt())
            .collect();
        // Invert: docs are visited in ascending id order, so each posting
        // list comes out doc-sorted with no extra sort.
        self.postings = vec![Vec::new(); self.df.len()];
        for (i, doc) in self.docs.iter().enumerate() {
            for (id, w) in doc {
                self.postings[*id as usize].push((i as u32, *w));
            }
        }
    }

    /// TF-IDF weights of the query's known terms, sorted by term id, plus
    /// the query norm. Shared by both query paths so their inputs — and
    /// therefore their accumulation order — are identical.
    fn query_weights(&self, query: &str) -> (Vec<(u32, f64)>, f64) {
        let mut qtf: HashMap<u32, f64> = HashMap::new();
        for sym in tokenize_syms(query) {
            if let Some(id) = self.vocab.get(&sym) {
                *qtf.entry(*id).or_insert(0.0) += 1.0;
            }
        }
        let n = self.docs.len().max(1) as f64;
        let mut terms: Vec<(u32, f64)> = qtf.into_iter().collect();
        terms.sort_unstable_by_key(|(id, _)| *id);
        for (id, w) in terms.iter_mut() {
            let df = self.df[*id as usize].max(1) as f64;
            *w = (1.0 + w.ln()) * ((n + 1.0) / df).ln();
        }
        let qnorm = terms.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        (terms, qnorm)
    }

    /// Scores `query` against the corpus through the postings list, best
    /// first. Only documents sharing at least one term with the query are
    /// touched. Output is identical to [`TfIdfIndex::try_query_linear`] —
    /// same docs, bit-identical scores, same tie order.
    ///
    /// # Errors
    ///
    /// [`IndexError::NotFinished`] if [`TfIdfIndex::finish`] has not been
    /// called.
    pub fn try_query(&self, query: &str, top: usize) -> Result<Vec<Hit>, IndexError> {
        if !self.finished {
            return Err(IndexError::NotFinished);
        }
        dda_obs::count("slm.query.postings", 1);
        let (terms, qnorm) = self.query_weights(query);
        if qnorm == 0.0 {
            return Ok(Vec::new());
        }
        // Dense accumulator + touched list: O(candidates), not O(corpus).
        let mut acc = vec![0.0f64; self.docs.len()];
        let mut touched: Vec<u32> = Vec::new();
        for (id, qw) in &terms {
            for (doc, dw) in &self.postings[*id as usize] {
                let slot = &mut acc[*doc as usize];
                if *slot == 0.0 {
                    touched.push(*doc);
                }
                *slot += qw * dw;
            }
        }
        // Candidates accumulated in first-touch order; sort by doc id so
        // assembly order matches the linear scan before ranking.
        touched.sort_unstable();
        let mut hits: Vec<Hit> = touched
            .into_iter()
            .filter_map(|doc| {
                let dot = acc[doc as usize];
                let norm = self.norms[doc as usize];
                if dot == 0.0 || norm == 0.0 {
                    return None;
                }
                Some(Hit {
                    doc: doc as usize,
                    score: dot / (qnorm * norm),
                })
            })
            .collect();
        // Top-k selection: partition the best `top` forward, then order
        // just those — O(c + k log k) instead of O(c log c).
        if hits.len() > top && top > 0 {
            hits.select_nth_unstable_by(top - 1, hit_order);
            hits.truncate(top);
        }
        hits.sort_unstable_by(hit_order);
        hits.truncate(top);
        Ok(hits)
    }

    /// The pre-postings reference: scores `query` by linearly scanning
    /// every document's sparse vector, then fully sorting the hits.
    ///
    /// Retained (not `#[cfg(test)]`) because the equivalence property
    /// tests, the criterion benches, and `perfsnap`'s speedup guard all
    /// compare [`TfIdfIndex::try_query`] against it at runtime.
    ///
    /// # Errors
    ///
    /// [`IndexError::NotFinished`] if [`TfIdfIndex::finish`] has not been
    /// called.
    pub fn try_query_linear(&self, query: &str, top: usize) -> Result<Vec<Hit>, IndexError> {
        if !self.finished {
            return Err(IndexError::NotFinished);
        }
        dda_obs::count("slm.query.linear", 1);
        let (terms, qnorm) = self.query_weights(query);
        if qnorm == 0.0 {
            return Ok(Vec::new());
        }
        let mut hits: Vec<Hit> = self
            .docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                // Same per-doc accumulation order as the postings path:
                // ascending term id.
                let mut dot = 0.0;
                for (id, qw) in &terms {
                    if let Ok(k) = d.binary_search_by_key(id, |(t, _)| *t) {
                        dot += qw * d[k].1;
                    }
                }
                if dot == 0.0 {
                    return None;
                }
                let norm = self.norms[i];
                if norm == 0.0 {
                    return None;
                }
                Some(Hit {
                    doc: i,
                    score: dot / (qnorm * norm),
                })
            })
            .collect();
        hits.sort_by(hit_order);
        hits.truncate(top);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(docs: &[&str]) -> TfIdfIndex {
        let mut idx = TfIdfIndex::new();
        for d in docs {
            idx.add(d);
        }
        idx.finish();
        idx
    }

    fn q(idx: &TfIdfIndex, query: &str, top: usize) -> Vec<Hit> {
        idx.try_query(query, top).unwrap()
    }

    #[test]
    fn exact_match_scores_highest() {
        let idx = index(&[
            "a counter with reset and enable",
            "a four to one multiplexer",
            "an eight bit ripple adder",
        ]);
        let hits = q(&idx, "a counter with reset and enable", 3);
        assert_eq!(hits[0].doc, 0);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn related_doc_beats_unrelated() {
        let idx = index(&[
            "counter module increments on clock edge",
            "multiplexer selects between inputs",
        ]);
        let hits = q(&idx, "build me a counter that increments", 2);
        assert_eq!(hits[0].doc, 0);
        assert!(hits[0].score > hits.get(1).map(|h| h.score).unwrap_or(0.0));
    }

    #[test]
    fn rare_terms_weigh_more() {
        let idx = index(&[
            "module module module gray encoder",
            "module counter",
            "module adder",
        ]);
        // "gray" is rare; a query containing it must pick doc 0 even though
        // "module" appears everywhere.
        let hits = q(&idx, "gray module", 3);
        assert_eq!(hits[0].doc, 0);
    }

    #[test]
    fn no_overlap_returns_empty() {
        let idx = index(&["alpha beta", "gamma delta"]);
        assert!(q(&idx, "zeta", 5).is_empty());
    }

    #[test]
    fn top_truncates() {
        let idx = index(&["x a", "x b", "x c", "x d"]);
        assert_eq!(q(&idx, "x", 2).len(), 2);
    }

    #[test]
    fn query_before_finish_is_typed_error() {
        let mut idx = TfIdfIndex::new();
        idx.add("a");
        assert_eq!(idx.try_query("a", 1), Err(IndexError::NotFinished));
        assert_eq!(idx.try_query_linear("a", 1), Err(IndexError::NotFinished));
        assert_eq!(
            IndexError::NotFinished.to_string(),
            "call finish() before query()"
        );
    }

    #[test]
    fn postings_match_linear_reference() {
        let idx = index(&[
            "counter module increments on clock edge",
            "multiplexer selects between inputs",
            "module counter with reset",
            "",
            "counter counter counter",
        ]);
        for q in [
            "counter",
            "module counter reset",
            "nothing indexed here",
            "",
            "multiplexer edge",
        ] {
            for top in [0, 1, 3, 10] {
                assert_eq!(
                    idx.try_query(q, top).unwrap(),
                    idx.try_query_linear(q, top).unwrap(),
                    "{q:?}/{top}"
                );
            }
        }
    }

    #[test]
    fn add_tokens_matches_add() {
        let mut a = TfIdfIndex::new();
        let mut b = TfIdfIndex::new();
        for d in ["counter with reset", "an adder", "counter again"] {
            a.add(d);
            let toks: Vec<_> = dda_core::tokenize::tokenize_syms(d).collect();
            b.add_tokens(&toks);
        }
        a.finish();
        b.finish();
        assert_eq!(
            a.try_query("counter reset", 3).unwrap(),
            b.try_query("counter reset", 3).unwrap()
        );
    }

    #[test]
    fn tie_break_is_insertion_order() {
        let idx = index(&["x y", "x y", "x y"]);
        let hits = q(&idx, "x y", 3);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
