//! One-pass multi-pattern search over [`ScrapeView`]s.
//!
//! [`Matcher`] compiles a set of byte patterns into an Aho–Corasick
//! automaton in DFA form and streams a view through it once: the walk visits
//! [`ScrapeView::segments`] in offset order and carries the automaton state
//! across every seam, so a match that straddles one, two or any number of
//! segment boundaries is found without copying bytes out of the view.
//!
//! The transition table is compressed by byte class: every byte that occurs
//! in some pattern gets a column of its own and all other bytes share column
//! 0, so the standard signature set fits in a few KiB of `u16` state ids.
//! Each state's accept set is a bitset already unioned along its fail links,
//! and at the root the walk skips straight to the next byte that can start a
//! pattern.  [`ScrapeView::find`] is the one-pattern case of the same walk.

use std::fmt;
use std::ops::ControlFlow;

use crate::view::ScrapeView;

/// Longest pattern prefix (the *key*) the automaton spells out.  A longer
/// pattern is matched on its key and the rest is compared in place, which
/// bounds the table of a long needle to `MAX_KEY + 1` states.
const MAX_KEY: usize = 64;

/// A compiled set of byte patterns.
///
/// # Example
///
/// ```
/// use zynq_dram::search::Matcher;
/// use zynq_dram::ScrapeView;
///
/// let matcher = Matcher::new(["vgg16", "torchvision/vgg16", "resnet50_pt"]);
/// let view = ScrapeView::from_slice(b"..torchvision/vgg16..");
/// assert_eq!(matcher.scan(&view), vec![true, true, false]);
/// ```
#[derive(Clone)]
pub struct Matcher {
    dfa: Dfa,
    /// The patterns as given, indexed like the result of [`Matcher::scan`].
    patterns: Vec<Box<[u8]>>,
    /// Key length cap the automaton was built with (at most [`MAX_KEY`]).
    key_cap: usize,
}

/// The automaton's tables.  State 0 is the root; state ids are `u16`.
#[derive(Clone)]
struct Dfa {
    /// Byte -> column of `next`; bytes that occur in no key map to 0.
    classes: [u16; 256],
    /// Columns per state: distinct key bytes plus the shared column 0.
    width: usize,
    /// `next[state * width + class]`: the complete transition function.
    next: Vec<u16>,
    /// Per state: whether its accept set is non-empty.
    accepting: Vec<bool>,
    /// Per state: `words` bitset words of the patterns whose key ends here.
    accepts: Vec<u64>,
    words: usize,
    /// Bytes with a transition out of the root.
    starts: [bool; 256],
}

impl Matcher {
    /// Compiles `patterns` into one automaton.  Any number of patterns of any
    /// length is accepted; an empty pattern never matches.
    pub fn new<P: AsRef<[u8]>>(patterns: impl IntoIterator<Item = P>) -> Matcher {
        let patterns: Vec<Box<[u8]>> = patterns.into_iter().map(|p| p.as_ref().into()).collect();
        // Halving the key cap shrinks the trie; with one-byte keys it has at
        // most 257 states, so the loop always ends.
        let mut key_cap = MAX_KEY;
        loop {
            if let Some(dfa) = Dfa::build(&patterns, key_cap) {
                return Matcher {
                    dfa,
                    patterns,
                    key_cap,
                };
            }
            key_cap /= 2;
        }
    }

    /// Which patterns occur in `view`, in one pass: entry `i` is `true`
    /// when pattern `i` occurs at least once.
    pub fn scan(&self, view: &ScrapeView<'_>) -> Vec<bool> {
        let mut hits = vec![false; self.patterns.len()];
        self.walk(view, |state, end| {
            for index in self.dfa.accepted(state) {
                if let Some(hit) = hits.get_mut(index) {
                    *hit = *hit || self.matches_at(view, index, end);
                }
            }
            ControlFlow::<()>::Continue(())
        });
        hits
    }

    /// Start offset of the match that ends first in `view`.  With a single
    /// pattern this is its earliest occurrence.
    pub(crate) fn first_match(&self, view: &ScrapeView<'_>) -> Option<usize> {
        self.walk(view, |state, end| {
            match self
                .dfa
                .accepted(state)
                .find(|&index| self.matches_at(view, index, end))
            {
                Some(index) => ControlFlow::Break(end + 1 - self.key_len(index)),
                None => ControlFlow::Continue(()),
            }
        })
    }

    fn key_len(&self, index: usize) -> usize {
        self.patterns
            .get(index)
            .map_or(0, |pattern| pattern.len().min(self.key_cap))
    }

    /// Whether pattern `index`, whose key ends at view offset `end`, matches
    /// in full.  Only patterns longer than the key cap need the comparison.
    fn matches_at(&self, view: &ScrapeView<'_>, index: usize, end: usize) -> bool {
        self.patterns.get(index).is_some_and(|pattern| {
            pattern.len() <= self.key_cap || view.eq_at(end + 1 - self.key_cap, pattern)
        })
    }

    /// Streams `view` through the automaton once, calling `on_accept(state,
    /// end)` at every byte that leaves it in an accepting state (`end` is
    /// that byte's view offset), until `on_accept` breaks.
    // Lint audit: `state < states` and `class < width` hold by construction
    // of the tables, and `i < segment.len()` by the loop condition.
    #[allow(clippy::indexing_slicing)]
    fn walk<B>(
        &self,
        view: &ScrapeView<'_>,
        mut on_accept: impl FnMut(usize, usize) -> ControlFlow<B>,
    ) -> Option<B> {
        let dfa = &self.dfa;
        let mut state = 0usize;
        let mut base = 0usize;
        for segment in view.segments() {
            let mut i = 0usize;
            while i < segment.len() {
                if state == 0 {
                    match segment[i..]
                        .iter()
                        .position(|&b| dfa.starts[usize::from(b)])
                    {
                        Some(skip) => i += skip,
                        None => break,
                    }
                }
                let class = usize::from(dfa.classes[usize::from(segment[i])]);
                state = usize::from(dfa.next[state * dfa.width + class]);
                if dfa.accepting[state] {
                    if let ControlFlow::Break(found) = on_accept(state, base + i) {
                        return Some(found);
                    }
                }
                i += 1;
            }
            base += segment.len();
        }
        None
    }
}

impl fmt::Debug for Matcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matcher")
            .field("patterns", &self.patterns.len())
            .field("states", &self.dfa.accepting.len())
            .field("classes", &self.dfa.width)
            .field("key_cap", &self.key_cap)
            .finish()
    }
}

impl Dfa {
    /// Builds the automaton over each pattern's first `key_cap` bytes, or
    /// `None` when it would need more states than a `u16` can name.
    // Lint audit: every index is a state id below the current state count
    // times `width`/`words`, a class below `width`, or a byte.
    #[allow(clippy::indexing_slicing)]
    fn build(patterns: &[Box<[u8]>], key_cap: usize) -> Option<Dfa> {
        let keys = || {
            patterns
                .iter()
                .map(|pattern| &pattern[..pattern.len().min(key_cap)])
        };

        let mut classes = [0u16; 256];
        for &b in keys().flatten() {
            classes[usize::from(b)] = 1;
        }
        let mut width = 1u16;
        for class in classes.iter_mut().filter(|class| **class != 0) {
            *class = width;
            width += 1;
        }
        let width = usize::from(width);
        let words = patterns.len().div_ceil(64);

        // The trie: a zero entry is "no child" (the root is nobody's child).
        let mut next = vec![0u16; width];
        let mut accepts = vec![0u64; words];
        let mut states = 1usize;
        for (index, key) in keys().enumerate() {
            if key.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in key {
                let slot = state * width + usize::from(classes[usize::from(b)]);
                state = match next[slot] {
                    0 => {
                        next[slot] = u16::try_from(states).ok()?;
                        states += 1;
                        next.resize(states * width, 0);
                        accepts.resize(states * words, 0);
                        states - 1
                    }
                    child => usize::from(child),
                };
            }
            accepts[state * words + index / 64] |= 1 << (index % 64);
        }

        // Breadth-first over the trie: each state's fail target is shallower
        // and therefore already complete, so missing transitions are copied
        // from it and its accept set is unioned in.
        let mut fail = vec![0u16; states];
        let mut order: Vec<u16> = next[..width]
            .iter()
            .copied()
            .filter(|&child| child != 0)
            .collect();
        let mut head = 0usize;
        while let Some(&state) = order.get(head) {
            head += 1;
            let state = usize::from(state);
            let fallback = usize::from(fail[state]);
            for class in 0..width {
                let target = next[fallback * width + class];
                let child = next[state * width + class];
                if child == 0 {
                    next[state * width + class] = target;
                } else {
                    order.push(child);
                    let child = usize::from(child);
                    fail[child] = target;
                    for word in 0..words {
                        accepts[child * words + word] |=
                            accepts[usize::from(target) * words + word];
                    }
                }
            }
        }

        let accepting = (0..states)
            .map(|state| {
                accepts[state * words..(state + 1) * words]
                    .iter()
                    .any(|&word| word != 0)
            })
            .collect();
        let mut starts = [false; 256];
        for (b, start) in starts.iter_mut().enumerate() {
            *start = next[usize::from(classes[b])] != 0;
        }
        Some(Dfa {
            classes,
            width,
            next,
            accepting,
            accepts,
            words,
            starts,
        })
    }

    /// Indexes of the patterns in `state`'s accept set, ascending.
    fn accepted(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        let set = self
            .accepts
            .get(state * self.words..(state + 1) * self.words)
            .unwrap_or_default();
        set.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    word * 64 + bit as usize
                })
            })
        })
    }
}

#[cfg(test)]
// Test fixtures index buffers they just built, within their lengths.
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    /// Deterministic test randomness (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            usize::try_from(self.next() % n.max(1) as u64).expect("below n")
        }

        /// `len` bytes over a small alphabet, so partial matches and
        /// fail-link transitions are frequent.
        fn bytes(&mut self, len: usize, alphabet: &[u8]) -> Vec<u8> {
            (0..len)
                .map(|_| alphabet[self.below(alphabet.len())])
                .collect()
        }
    }

    /// A view over `data` with a `head_len`-byte head and `unit` chunks.
    fn chunked(data: &[u8], head_len: usize, unit: usize) -> ScrapeView<'_> {
        let mut view = ScrapeView::with_unit(unit);
        let (head, rest) = data.split_at(head_len.min(data.len()));
        view.set_head(head);
        for chunk in rest.chunks(unit) {
            view.push_chunk(chunk);
        }
        view
    }

    fn naive_find(data: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() {
            return None;
        }
        data.windows(needle.len()).position(|w| w == needle)
    }

    fn naive_scan(data: &[u8], patterns: &[Vec<u8>]) -> Vec<bool> {
        patterns
            .iter()
            .map(|p| naive_find(data, p).is_some())
            .collect()
    }

    const ALPHABET: &[u8] = b"abc";

    #[test]
    fn find_matches_the_naive_search_over_random_segmentations() {
        let page = usize::try_from(PAGE_SIZE).expect("page fits usize");
        let mut rng = Rng(2024);
        let mut unit = 1usize;
        while unit <= page {
            let len = (unit * 5 + 17).min(3 * page);
            let mut data = rng.bytes(len, ALPHABET);
            // Plant one needle twice so earliest-match order is exercised.
            let planted = rng.bytes(unit.min(48) + 3, b"abcd");
            let second = len - planted.len();
            data[second..].copy_from_slice(&planted);
            let first = rng.below(second.saturating_sub(planted.len()));
            data[first..first + planted.len()].copy_from_slice(&planted);

            let heads: Vec<usize> = if unit <= 16 {
                (0..unit).collect()
            } else {
                vec![0, 1, unit / 2, unit - 1]
            };
            for head in heads {
                let view = chunked(&data, head, unit);
                let mut needles = vec![planted.clone(), b"dddd".to_vec(), Vec::new()];
                for span in [1, 2, 3, 4, 2 * unit + 1, 3 * unit + 2, MAX_KEY + 9] {
                    // Needles copied from the data that straddle one, two,
                    // three or more seams, or are longer than a unit.
                    let span = span.min(len);
                    let at = rng.below(len - span + 1);
                    needles.push(data[at..at + span].to_vec());
                }
                for needle in &needles {
                    assert_eq!(
                        view.find(needle),
                        naive_find(&data, needle),
                        "unit={unit} head={head} needle len {}",
                        needle.len()
                    );
                }
                assert_eq!(view.find(&planted), Some(first.min(second)));
            }
            unit *= 2;
        }
    }

    #[test]
    fn scan_matches_the_naive_search_for_overlapping_pattern_sets() {
        let mut rng = Rng(7);
        for round in 0..40 {
            let len = 64 + rng.below(900);
            let mut data = rng.bytes(len, ALPHABET);
            let mut patterns: Vec<Vec<u8>> = Vec::new();
            for _ in 0..(1 + rng.below(90)) {
                let plen = 1 + rng.below(if round % 4 == 0 { 150 } else { 12 });
                patterns.push(rng.bytes(plen, b"abcd"));
            }
            // Prefixes, suffixes and duplicates of other patterns, and one
            // pattern nested inside another (like `vgg16` inside
            // `torchvision/vgg16`).
            let base = patterns[0].clone();
            patterns.push(base[..base.len().div_ceil(2)].to_vec());
            patterns.push(base[base.len() / 2..].to_vec());
            patterns.push(base.clone());
            patterns.push([b"xy".as_slice(), &base, b"z"].concat());
            patterns.push(Vec::new());
            // Planted once, `yzz` only ever ends inside `xyzzy`: it is found
            // through the accept set unioned along `xyzz`'s fail link.
            patterns.push(b"yzz".to_vec());
            patterns.push(b"xyzzy".to_vec());
            let at = rng.below(len - 5);
            data[at..at + 5].copy_from_slice(b"xyzzy");
            for pattern in patterns.iter().take(8) {
                if pattern.len() < len {
                    let at = rng.below(len - pattern.len());
                    data[at..at + pattern.len()].copy_from_slice(pattern);
                }
            }
            let matcher = Matcher::new(&patterns);
            let expected = naive_scan(&data, &patterns);
            for (head, unit) in [(0, 4096), (3, 16), (0, 1), (5, 8), (len / 2, 64)] {
                let view = chunked(&data, head, unit);
                assert_eq!(
                    matcher.scan(&view),
                    expected,
                    "round {round} head={head} unit={unit}"
                );
            }
        }
    }

    #[test]
    fn edge_cases_never_match_and_never_panic() {
        let empty = ScrapeView::from_slice(&[]);
        let none: [&[u8]; 0] = [];
        assert!(Matcher::new(none).scan(&empty).is_empty());
        assert!(Matcher::new(none)
            .scan(&ScrapeView::from_slice(b"abc"))
            .is_empty());
        let matcher = Matcher::new([&b""[..], b"abc", b"abcdef"]);
        assert_eq!(matcher.scan(&empty), vec![false, false, false]);
        let short = ScrapeView::from_slice(b"xabcx");
        assert_eq!(
            matcher.scan(&short),
            vec![false, true, false],
            "empty and longer-than-view patterns never hit"
        );
        assert_eq!(short.find(b""), None);
        assert_eq!(short.find(b"xabcxy"), None);
        assert_eq!(empty.find(b"a"), None);
    }

    #[test]
    fn more_than_sixty_four_patterns_keep_their_own_bits() {
        let patterns: Vec<String> = (0..200).map(|i| format!("<{i}>")).collect();
        let data: String = (0..200)
            .filter(|i| i % 3 == 0)
            .map(|i| format!("<{i}>"))
            .collect();
        let hits = Matcher::new(&patterns).scan(&ScrapeView::from_slice(data.as_bytes()));
        let expected: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn oversized_tries_fall_back_to_shorter_keys() {
        // ~1500 binary patterns of 70 bytes need ~90k trie states at the
        // full key cap, more than a u16 can name.
        let mut rng = Rng(99);
        let patterns: Vec<Vec<u8>> = (0..1500).map(|_| rng.bytes(70, b"01")).collect();
        let matcher = Matcher::new(&patterns);
        assert!(matcher.key_cap < MAX_KEY, "{matcher:?}");
        let mut data = rng.bytes(700, b"01");
        data[100..170].copy_from_slice(&patterns[3]);
        data[600..670].copy_from_slice(&patterns[1400]);
        for unit in [4096, 32] {
            let view = chunked(&data, 7, unit);
            assert_eq!(matcher.scan(&view), naive_scan(&data, &patterns));
        }
    }
}
