//! Word interning.

use std::collections::HashMap;

use crate::hash::FxBuildHasher;
use crate::text::{fold_duplicates, tokenize};
use crate::{WordId, WordSet};

/// Interns words (including folded multiplicity tokens) to dense
/// [`WordId`]s and tracks per-word corpus frequencies.
///
/// Corpus frequency — in how many *bid phrases* a word occurs — drives the
/// "index only the rarest word" non-redundant inverted baseline and informs
/// the re-mapping heuristics.
///
/// # Examples
///
/// ```
/// use broadmatch::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let a = vocab.intern("books");
/// let b = vocab.intern("books");
/// let c = vocab.intern("cheap");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(vocab.resolve(a), Some("books"));
/// assert_eq!(vocab.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    map: HashMap<Box<str>, WordId, FxBuildHasher>,
    words: Vec<Box<str>>,
    /// Number of indexed phrases each word occurs in.
    phrase_freq: Vec<u64>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Intern `word`, returning its id (existing or fresh).
    pub fn intern(&mut self, word: &str) -> WordId {
        if let Some(&id) = self.map.get(word) {
            return id;
        }
        let id = WordId(self.words.len() as u32);
        let boxed: Box<str> = word.into();
        self.words.push(boxed.clone());
        self.phrase_freq.push(0);
        self.map.insert(boxed, id);
        id
    }

    /// Look up a word without interning.
    pub fn get(&self, word: &str) -> Option<WordId> {
        self.map.get(word).copied()
    }

    /// The string for `id`, if assigned.
    pub fn resolve(&self, id: WordId) -> Option<&str> {
        self.words.get(id.0 as usize).map(|w| w.as_ref())
    }

    /// Record that `id` occurs in one more indexed phrase.
    pub fn bump_phrase_freq(&mut self, id: WordId) {
        if let Some(f) = self.phrase_freq.get_mut(id.0 as usize) {
            *f += 1;
        }
    }

    /// In how many indexed phrases `id` occurs.
    pub fn phrase_freq(&self, id: WordId) -> u64 {
        self.phrase_freq.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Tokenize `text`, fold duplicates, and intern every folded token,
    /// returning the canonical [`WordSet`] plus the ordered raw word-id
    /// sequence (interned *without* folding) needed for phrase/exact match.
    pub fn intern_phrase(&mut self, text: &str) -> (WordSet, Vec<WordId>) {
        let tokens = tokenize(text);
        let raw: Vec<WordId> = tokens.iter().map(|t| self.intern(t)).collect();
        let folded = fold_duplicates(&tokens);
        let ids: Vec<WordId> = folded.iter().map(|t| self.intern(&t.key())).collect();
        (WordSet::from_unsorted(ids), raw)
    }

    /// Like [`Vocabulary::intern_phrase`] but read-only: unknown words map
    /// to `None`. Used on the query path, where a word absent from the
    /// vocabulary can never contribute to a match.
    pub fn lookup_query(&self, text: &str) -> (WordSet, Vec<Option<WordId>>) {
        let tokens = tokenize(text);
        let raw: Vec<Option<WordId>> = tokens.iter().map(|t| self.get(t)).collect();
        let folded = fold_duplicates(&tokens);
        let ids: Vec<WordId> = folded.iter().filter_map(|t| self.get_folded(t)).collect();
        (WordSet::from_unsorted(ids), raw)
    }

    /// Look up a folded token without allocating its key when the token has
    /// multiplicity 1 (the overwhelmingly common case on the query path).
    pub fn get_folded(&self, token: &crate::text::FoldedToken) -> Option<WordId> {
        if token.count == 1 {
            self.get(&token.word)
        } else {
            self.get(&token.key())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), v.intern("a"));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn get_does_not_intern() {
        let v = Vocabulary::new();
        assert_eq!(v.get("a"), None);
    }

    #[test]
    fn phrase_freq_tracking() {
        let mut v = Vocabulary::new();
        let id = v.intern("books");
        assert_eq!(v.phrase_freq(id), 0);
        v.bump_phrase_freq(id);
        v.bump_phrase_freq(id);
        assert_eq!(v.phrase_freq(id), 2);
    }

    #[test]
    fn intern_phrase_folds_duplicates() {
        let mut v = Vocabulary::new();
        let (set, raw) = v.intern_phrase("talk talk");
        // One folded token ("talk\u{1F}2"), two raw tokens ("talk", "talk").
        assert_eq!(set.len(), 1);
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0], raw[1]);
        // The folded id differs from the raw id.
        assert_ne!(set.ids()[0], raw[0]);
    }

    #[test]
    fn lookup_query_is_read_only() {
        let mut v = Vocabulary::new();
        v.intern_phrase("used books");
        let before = v.len();
        let (set, raw) = v.lookup_query("used books today");
        assert_eq!(v.len(), before, "query lookup must not intern");
        assert_eq!(set.len(), 2); // "today" unknown, dropped from the set
        assert_eq!(raw.len(), 3);
        assert!(raw[2].is_none());
    }
}
