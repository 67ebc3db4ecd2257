//! Uncertain transaction database substrate.
//!
//! Implements the *tuple-uncertainty* data model of the paper: a database
//! is a sequence of transactions, each an itemset paired with an
//! independent existential probability. Possible-world semantics interpret
//! the database as a distribution over exact transaction databases.
//!
//! The crate provides:
//!
//! * [`item`] — compact item identifiers and a symbol dictionary;
//! * [`transaction`] — validated transactions (sorted, duplicate-free);
//! * [`database`] — the [`UncertainDatabase`] with vertical tid-lists and
//!   dataset statistics;
//! * [`bitset`] — word-level bitmap kernels ([`TidBitmap`]): AND/ANDNOT,
//!   popcount counting, set-bit iteration, fingerprint hashing;
//! * [`tidset`] — packed bitsets over transaction ids, the workhorse of
//!   the miner's structural prunings (a thin adapter over [`bitset`]);
//! * [`window`] — a sliding window over a transaction stream, mineable in
//!   place (retired-prefix layout with periodic compaction);
//! * [`worlds`] — exhaustive possible-world enumeration for small
//!   databases (the ground-truth oracle used throughout the test suites);
//! * [`gaussian`] — the paper's experimental protocol of assigning
//!   Gaussian-distributed existential probabilities;
//! * [`gen`] — dataset generators: an IBM-Quest-style synthetic generator
//!   (the `T20I10D30KP40` family) and a Mushroom-like dense categorical
//!   generator;
//! * [`io`] — plain-text `.dat` reading and writing.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bitset;
pub mod database;
pub mod gaussian;
pub mod gen;
pub mod io;
pub mod item;
pub mod tidset;
pub mod transaction;
pub mod window;
pub mod worlds;

pub use bitset::TidBitmap;
pub use database::{DatabaseStats, UncertainDatabase};
pub use gaussian::{assign_gaussian_probabilities, assign_uniform_probabilities};
pub use item::{Item, ItemDictionary, MAX_ITEM_ID};
pub use tidset::TidSet;
pub use transaction::UncertainTransaction;
pub use window::SlidingWindow;
pub use worlds::PossibleWorlds;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_udb() -> impl Strategy<Value = UncertainDatabase> {
        let tx = (1u32..128, 0.01f64..=1.0);
        proptest::collection::vec(tx, 0..14).prop_map(|rows| {
            let transactions: Vec<UncertainTransaction> = rows
                .into_iter()
                .map(|(mask, p)| {
                    let items: Vec<Item> =
                        (0..7).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                    UncertainTransaction::new(items, p)
                })
                .collect();
            UncertainDatabase::new(transactions, ItemDictionary::new())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Serialization round-trips every database exactly.
        #[test]
        fn dat_round_trip(db in arb_udb()) {
            let text = io::to_dat(&db);
            let back = io::parse_dat(&text).expect("serializer output must parse");
            prop_assert_eq!(back.len(), db.len());
            for (a, b) in db.transactions().iter().zip(back.transactions()) {
                prop_assert_eq!(a.items(), b.items());
                prop_assert!((a.probability() - b.probability()).abs() < 1e-12);
            }
        }

        /// The vertical index agrees with row-wise membership.
        #[test]
        fn vertical_index_is_consistent(db in arb_udb()) {
            for id in 0..db.num_items() as u32 {
                let item = Item(id);
                let tids = db.tidset_of(item);
                for (tid, t) in db.transactions().iter().enumerate() {
                    prop_assert_eq!(tids.contains(tid), t.contains(item));
                }
            }
        }

        /// Itemset tid-sets really are intersections, and counts and
        /// expected supports follow.
        #[test]
        fn itemset_tidset_identities(db in arb_udb()) {
            let m = db.num_items() as u32;
            for mask in 1u32..(1 << m.min(7)) {
                let x: Vec<Item> =
                    (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                let tids = db.tidset_of_itemset(&x);
                for (tid, t) in db.transactions().iter().enumerate() {
                    prop_assert_eq!(tids.contains(tid), t.contains_all(&x));
                }
                prop_assert_eq!(db.count_of_itemset(&x), tids.count());
                let esup: f64 = tids.iter().map(|tid| db.probability(tid)).sum();
                prop_assert!((db.expected_support(&x) - esup).abs() < 1e-12);
            }
        }

        /// Possible worlds form a probability space, and per-world support
        /// counts match direct recomputation.
        #[test]
        fn worlds_form_probability_space(db in arb_udb()) {
            let total: f64 = PossibleWorlds::new(&db).map(|(_, p)| p).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            // Expected support == Σ_worlds Pr(w) · sup_w for one item.
            if db.num_items() > 0 {
                let x = vec![Item(0)];
                let by_worlds: f64 = PossibleWorlds::new(&db)
                    .map(|(w, p)| {
                        p * PossibleWorlds::support_in_world(&db, w, &x) as f64
                    })
                    .sum();
                prop_assert!((by_worlds - db.expected_support(&x)).abs() < 1e-9);
            }
        }

        /// A closed itemset in a world equals the intersection of its
        /// present supporting transactions.
        #[test]
        fn closedness_is_closure_fixpoint(db in arb_udb()) {
            if db.is_empty() {
                return Ok(());
            }
            let m = db.num_items() as u32;
            for (w, _) in PossibleWorlds::new(&db) {
                for mask in 1u32..(1 << m.min(5)) {
                    let x: Vec<Item> =
                        (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                    let closed = PossibleWorlds::is_closed_in_world(&db, w, &x);
                    // Recompute from first principles.
                    let present: Vec<usize> = db
                        .tidset_of_itemset(&x)
                        .iter()
                        .filter(|&t| w >> t & 1 == 1)
                        .collect();
                    let expected = if present.is_empty() {
                        false
                    } else {
                        // closure = items common to all present rows
                        let closure: Vec<Item> = (0..m)
                            .map(Item)
                            .filter(|&i| {
                                present
                                    .iter()
                                    .all(|&t| db.transaction(t).contains(i))
                            })
                            .collect();
                        closure == x
                    };
                    prop_assert_eq!(closed, expected, "world={:b} X={:?}", w, x);
                }
            }
        }
    }
}
