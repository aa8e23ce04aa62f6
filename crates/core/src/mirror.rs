//! The decoded mirror of a memory image: what the accelerator's wires carry
//! once a 4800-bit word has been fetched, computed once per image instead of
//! once per packet.
//!
//! The real device decodes nothing at run time — a fetched word *is* 30
//! comparator inputs or a mask/shift header plus 256 child entries, by
//! wiring.  A software model that re-extracts those bit fields for every
//! packet spends its host time on `get_bits`, not on the modelled datapath.
//! [`Mirror::decode`] therefore runs when the image is loaded (the end of
//! `HardwareProgram`'s build, where a device is configured), reads the
//! emitted words back through [`read_header`], [`read_child`] and
//! [`read_rule`] — never from the tree they were encoded from, so every
//! decision still round-trips through the paper's 160-bit rule and 18-bit
//! child-entry formats — and keeps the result in plain arrays the
//! per-packet walk in [`crate::hw`] indexes.
//!
//! The decode follows the image from the root: every child entry a header
//! can select, every leaf chain such an entry starts.  It sees each
//! reachable word once, which makes it the place where a malformed image is
//! rejected (a panic naming the word) rather than walked.
//!
//! The mirror is host-side simulator state, like the rule list a program
//! carries: it is *not* part of `memory_bytes()`, which stays the device's
//! SRAM footprint.  It costs 48 bytes per rule slot (1,440 per word against
//! the word's own 600), 16 per word for a header and 4 per selectable child
//! entry.

use crate::bits::Word;
use crate::encode::{read_child, read_header, read_rule, ChildEntry, DecodedRule, NodeHeader};
use crate::{MAX_CUTS, RULES_PER_WORD};
use pclass_types::FIELD_COUNT;

/// Child code of a null entry.
const NULL: u32 = u32::MAX;
/// Flag bit of a leaf child code, over `word << 5 | pos`; an internal
/// child's code is its word address.
const LEAF: u32 = 1 << 31;

/// The decoded header of one internal word and where its child codes start.
#[derive(Debug, Clone, Copy)]
struct Node {
    header: NodeHeader,
    first_child: u32,
}

/// The decoded image.
#[derive(Debug, Clone)]
pub(crate) struct Mirror {
    /// Indexed by word address; filled for the words reached as internal
    /// nodes.
    nodes: Vec<Node>,
    /// Packed child codes, one run per internal node covering every index
    /// its header can produce.
    children: Vec<u32>,
    /// Indexed `word * 30 + pos`, so a leaf that spills into the next word
    /// is simply the next index; `None` where no leaf stores a rule.
    slots: Vec<Option<DecodedRule>>,
}

impl Mirror {
    /// Decodes an image whose word 0 is the root node.
    ///
    /// # Panics
    /// Panics, naming the offending word, if a header can select a child
    /// index past the 256-entry table, a child entry points outside the
    /// image, or a leaf runs off the end of the image without an
    /// end-of-leaf marker — so the per-packet walk needs no fallback.
    pub(crate) fn decode(words: &[Word]) -> Mirror {
        assert!(!words.is_empty(), "an image holds at least the root word");
        let mut mirror = Mirror {
            nodes: vec![
                Node {
                    header: NodeHeader::identity(),
                    first_child: 0,
                };
                words.len()
            ],
            children: Vec::new(),
            slots: vec![None; words.len() * RULES_PER_WORD],
        };
        // Words reached as internal nodes, in discovery order.
        let mut internal = vec![0usize];
        let mut reached = vec![false; words.len()];
        reached[0] = true;
        let mut next = 0;
        while let Some(&word) = internal.get(next) {
            next += 1;
            let header = read_header(&words[word]);
            // A masked byte is largest with every masked bit set.
            let last = header.child_index(&header.masks);
            assert!(
                last < MAX_CUTS,
                "word {word}: the header can select child {last}, past the {MAX_CUTS}-entry table"
            );
            mirror.nodes[word] = Node {
                header,
                first_child: mirror.children.len() as u32,
            };
            for index in 0..=last as usize {
                let code = match read_child(&words[word], index) {
                    ChildEntry::Null => NULL,
                    ChildEntry::Internal { word: child } => {
                        assert!(
                            child < words.len(),
                            "word {word}: child {index} points at word {child}, outside the {}-word image",
                            words.len()
                        );
                        if !reached[child] {
                            reached[child] = true;
                            internal.push(child);
                        }
                        child as u32
                    }
                    ChildEntry::Leaf { word: leaf, pos } => {
                        assert!(
                            leaf < words.len() && pos < RULES_PER_WORD,
                            "word {word}: child {index} points at slot {pos} of word {leaf}, outside the {}-word image",
                            words.len()
                        );
                        mirror.decode_leaf(words, leaf * RULES_PER_WORD + pos);
                        LEAF | (leaf as u32) << 5 | pos as u32
                    }
                };
                mirror.children.push(code);
            }
        }
        mirror
    }

    /// Decodes the leaf starting at slot `start` up to its end-of-leaf
    /// marker, or up to a slot an earlier leaf already decoded (whose own
    /// pass then reached the marker).
    fn decode_leaf(&mut self, words: &[Word], start: usize) {
        for at in start..self.slots.len() {
            if self.slots[at].is_some() {
                return;
            }
            let rule = read_rule(&words[at / RULES_PER_WORD], at % RULES_PER_WORD);
            let end_of_leaf = rule.end_of_leaf;
            self.slots[at] = Some(rule);
            if end_of_leaf {
                return;
            }
        }
        panic!(
            "word {}: the leaf starting at slot {} runs off the {}-word image without an end-of-leaf marker",
            start / RULES_PER_WORD,
            start % RULES_PER_WORD,
            words.len()
        );
    }

    /// The child entry the internal node in `word` selects for a packet:
    /// the mask–shift–add index into its child entries.
    #[inline]
    pub(crate) fn child(&self, word: usize, msb8: &[u8; FIELD_COUNT]) -> ChildEntry {
        let node = &self.nodes[word];
        let code =
            self.children[node.first_child as usize + node.header.child_index(msb8) as usize];
        if code == NULL {
            ChildEntry::Null
        } else if code & LEAF != 0 {
            ChildEntry::Leaf {
                word: ((code & !LEAF) >> 5) as usize,
                pos: (code & 0x1F) as usize,
            }
        } else {
            ChildEntry::Internal {
                word: code as usize,
            }
        }
    }

    /// The rule slots of the whole image, indexed `word * 30 + pos`.
    #[inline]
    pub(crate) fn slots(&self) -> &[Option<DecodedRule>] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use crate::bits::{zero_word, Word};
    use crate::builder::{BuildConfig, CutAlgorithm};
    use crate::encode::{read_child, read_header, write_internal, ChildEntry, NodeHeader};
    use crate::program::HardwareProgram;
    use crate::MAX_CUTS;
    use pclass_classbench::{ClassBenchGenerator, SeedStyle};

    fn valid_image() -> (HardwareProgram, Vec<Word>) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 5).generate(200);
        let config = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        let program = HardwareProgram::build(&rs, &config).unwrap();
        let words = (0..program.word_count())
            .map(|w| *program.word(w))
            .collect();
        (program, words)
    }

    /// Reloads a valid image after rewriting its root word.
    fn with_root(edit: impl FnOnce(&mut NodeHeader, &mut Vec<ChildEntry>, usize)) {
        let (program, mut words) = valid_image();
        let mut header = read_header(&words[0]);
        let mut children: Vec<ChildEntry> = (0..MAX_CUTS as usize)
            .map(|i| read_child(&words[0], i))
            .collect();
        edit(&mut header, &mut children, words.len());
        words[0] = zero_word();
        write_internal(&mut words[0], &header, &children).unwrap();
        program.reimaged(words);
    }

    #[test]
    #[should_panic(expected = "word 0: child 0 points at word")]
    fn a_child_address_outside_the_image_fails_the_load() {
        with_root(|_, children, words| children[0] = ChildEntry::Internal { word: words });
    }

    #[test]
    #[should_panic(expected = "word 0: child 1 points at slot 30")]
    fn a_leaf_position_past_the_comparators_fails_the_load() {
        with_root(|_, children, _| children[1] = ChildEntry::Leaf { word: 1, pos: 30 });
    }

    #[test]
    #[should_panic(expected = "without an end-of-leaf marker")]
    fn a_leaf_without_an_end_marker_fails_the_load() {
        let (program, mut words) = valid_image();
        // Blank the last word: the leaf stored there loses its marker.
        *words.last_mut().unwrap() = zero_word();
        program.reimaged(words);
    }

    #[test]
    #[should_panic(expected = "word 0: the header can select child 510")]
    fn a_header_indexing_past_256_children_fails_the_load() {
        with_root(|header, _, _| {
            header.masks = [0xFF, 0xFF, 0, 0, 0];
            header.shifts = [0; 5];
        });
    }
}
