//! Item identifiers and the symbol dictionary.
//!
//! Items are dense `u32` identifiers; the identifier order doubles as the
//! "alphabetic order" the paper's depth-first enumeration and prunings are
//! stated in. A [`ItemDictionary`] maps external symbols (strings such as
//! `"HKUST"` or `"Rain"`) to identifiers and back, so example databases can
//! be written in the paper's notation while the miner works on integers.

use std::collections::HashMap;
use std::fmt;

/// The largest item id the `.dat` and stream readers accept.
///
/// Ids are dense indices, not labels: a database holds one tid-set for
/// every id up to the largest one it contains, so a single huge id costs
/// memory and time in proportion to the id itself. Datasets with sparse
/// or larger ids must be renumbered first (or read through an
/// [`ItemDictionary`]).
pub const MAX_ITEM_ID: u32 = (1 << 20) - 1;

/// A dense item identifier.
///
/// Ordering of `Item`s is the total order all prefix-based enumeration in
/// the miner relies on (the paper's "alphabetic order").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item(pub u32);

impl Item {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for Item {
    fn from(v: u32) -> Self {
        Item(v)
    }
}

/// Bidirectional mapping between external item symbols and [`Item`] ids.
///
/// Ids are handed out in first-intern order, so interning symbols in
/// lexicographic order makes id order coincide with lexicographic order —
/// which is how the paper's running examples are reproduced faithfully.
///
/// # Examples
///
/// ```
/// use utdb::ItemDictionary;
/// let mut dict = ItemDictionary::new();
/// let a = dict.intern("a");
/// let b = dict.intern("b");
/// assert!(a < b);
/// assert_eq!(dict.intern("a"), a); // idempotent
/// assert_eq!(dict.symbol(a), Some("a"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ItemDictionary {
    by_symbol: HashMap<String, Item>,
    by_id: Vec<String>,
}

impl ItemDictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `symbol`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, symbol: &str) -> Item {
        if let Some(&item) = self.by_symbol.get(symbol) {
            return item;
        }
        let item = Item(self.by_id.len() as u32);
        self.by_symbol.insert(symbol.to_owned(), item);
        self.by_id.push(symbol.to_owned());
        item
    }

    /// Look up an already-interned symbol.
    pub fn get(&self, symbol: &str) -> Option<Item> {
        self.by_symbol.get(symbol).copied()
    }

    /// The symbol for an id, if in range.
    pub fn symbol(&self, item: Item) -> Option<&str> {
        self.by_id.get(item.index()).map(String::as_str)
    }

    /// Number of distinct interned items.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Render an itemset as `{a, b, c}` using interned symbols, falling
    /// back to the numeric id for unknown items.
    pub fn render(&self, items: &[Item]) -> String {
        let inner: Vec<String> = items
            .iter()
            .map(|&i| {
                self.symbol(i)
                    .map(str::to_owned)
                    .unwrap_or_else(|| i.to_string())
            })
            .collect();
        format!("{{{}}}", inner.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut d = ItemDictionary::new();
        let ids: Vec<Item> = ["a", "b", "c", "b", "a"]
            .iter()
            .map(|s| d.intern(s))
            .collect();
        assert_eq!(ids[0], ids[4]);
        assert_eq!(ids[1], ids[3]);
        assert_eq!(d.len(), 3);
        assert_eq!(ids[0].0, 0);
        assert_eq!(ids[1].0, 1);
        assert_eq!(ids[2].0, 2);
    }

    #[test]
    fn symbol_round_trip() {
        let mut d = ItemDictionary::new();
        let x = d.intern("Location=HKUST");
        assert_eq!(d.symbol(x), Some("Location=HKUST"));
        assert_eq!(d.get("Location=HKUST"), Some(x));
        assert_eq!(d.get("missing"), None);
        assert_eq!(d.symbol(Item(99)), None);
    }

    #[test]
    fn render_uses_symbols() {
        let mut d = ItemDictionary::new();
        let a = d.intern("a");
        let b = d.intern("b");
        assert_eq!(d.render(&[a, b]), "{a, b}");
        assert_eq!(d.render(&[Item(7)]), "{i7}");
        assert_eq!(d.render(&[]), "{}");
    }

    #[test]
    fn item_order_is_id_order() {
        assert!(Item(0) < Item(1));
        assert!(Item(10) > Item(2));
    }
}
