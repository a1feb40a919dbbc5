//! # stm-structures
//!
//! Transactional data structures built on top of `stm-core`, mirroring the
//! benchmark applications of *"Toward a Theory of Transactional Contention
//! Managers"* (Guerraoui, Herlihy, Pochon — PODC 2005):
//!
//! * [`TxList`] — a sorted linked-list integer set (Figure 1, high
//!   contention: every operation traverses the same prefix).
//! * [`TxSkipList`] — a skiplist integer set (Figure 2).
//! * [`TxRbTree`] — a red-black tree integer set (Figure 3, run with a low
//!   contention workload in the paper).
//! * [`TxRbForest`] — fifty red-black trees; each update touches either one
//!   tree or all of them at random, producing transactions of highly
//!   variable length (Figure 4).
//!
//! All four implement the [`TxSet`] trait so the benchmark harness can be
//! generic over the structure. So does [`TxChunkedSet`], which is not from
//! the paper: a B+-tree with one `TVar` per 64-key node, priced by objects
//! opened rather than keys visited, and — one tree per shard of 1,024-key
//! blocks — the ordered index under `stm-kv`'s store. One auxiliary structure,
//! [`TxCounter`], is used by the examples and tests.
//!
//! Every operation takes `&mut Txn` and returns a [`stm_core::TxResult`];
//! operations compose — several calls inside one `atomically` closure form a
//! single atomic transaction:
//!
//! ```
//! use stm_core::Stm;
//! use stm_cm::GreedyManager;
//! use stm_structures::{TxList, TxSet};
//!
//! let stm = Stm::builder().manager(GreedyManager::factory()).build();
//! let set = TxList::new();
//! let mut ctx = stm.thread();
//! ctx.atomically(|tx| {
//!     set.insert(tx, 3)?;
//!     set.insert(tx, 1)?;
//!     set.remove(tx, 3)?;
//!     Ok(())
//! })
//! .unwrap();
//! let contents = ctx.atomically(|tx| set.to_vec(tx)).unwrap();
//! assert_eq!(contents, vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunked;
pub mod counter;
pub mod forest;
pub mod list;
pub mod rbtree;
pub mod set;
pub mod sharded;
pub mod skiplist;

pub use chunked::TxChunkedSet;
pub use counter::TxCounter;
pub use forest::TxRbForest;
pub use list::TxList;
pub use rbtree::TxRbTree;
pub use set::TxSet;
pub use sharded::ShardedTxSet;
pub use skiplist::TxSkipList;
