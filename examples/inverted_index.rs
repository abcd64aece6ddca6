//! Peer-to-peer information retrieval: a distributed inverted file.
//!
//! ```text
//! cargo run -p pgrid --example inverted_index
//! ```
//!
//! This is the application scenario that motivates the paper: documents are
//! spread over peers, every peer extracts index terms from its own
//! documents, and a dedicated overlay indexing the `(term, document)`
//! postings is constructed from scratch.  Keyword lookups and term-prefix
//! searches then route to the peers responsible for the term's key range,
//! and the results are checked against the ground truth of the corpus.

use pgrid::prelude::*;
use pgrid::workload::corpus::{prefix_key_range, term_key, Corpus, CorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    // 1. Generate a synthetic document collection (the substitute for the
    //    Alvis collection used in the paper).
    let corpus = Corpus::generate(
        &CorpusConfig {
            documents: 600,
            vocabulary: 1500,
            zipf_exponent: 1.0,
            terms_per_document: 18,
        },
        &mut rng,
    );
    println!(
        "corpus: {} documents, {} vocabulary terms, {} postings",
        corpus.documents.len(),
        corpus.vocabulary.len(),
        corpus.num_postings()
    );

    // 2. Build the overlay from the per-peer postings: 96 peers, each
    //    indexing its own share of the documents.
    let n_peers = 96;
    let per_peer = corpus.partition_postings(n_peers);
    let avg_keys = corpus.num_postings() as f64 / n_peers as f64;
    let config = SimConfig {
        n_peers,
        keys_per_peer: avg_keys.round() as usize,
        n_min: 5,
        distribution: Distribution::Text {
            vocabulary: 1500,
            exponent: 1.0,
        },
        seed: 99,
        ..SimConfig::default()
    };
    // Construct over the synthetic distribution (same statistics as the
    // corpus keys), then load the real postings into the responsible peers,
    // which is exactly what the operational system would hold.
    let mut overlay = construct(&config);
    for postings in &per_peer {
        for posting in postings {
            for peer in overlay.peers.iter_mut() {
                if peer.path.covers(posting.key) {
                    peer.store.insert(*posting);
                }
            }
        }
    }
    println!(
        "overlay: {} peers, max depth {}, mean depth {:.2}",
        overlay.peers.len(),
        overlay.max_depth(),
        overlay.mean_depth()
    );

    // 3. Keyword search: pick a term that occurs in the corpus.
    let term = corpus.documents[0].terms[0].clone();
    let expected = corpus.documents_with_term(&term);
    let result = lookup(&overlay.peers, PeerId(3), term_key(&term), &mut rng);
    let found: Vec<_> = result.entries.iter().map(|e| e.id).collect();
    println!(
        "keyword '{term}': {} postings found in {} hops (corpus ground truth: {})",
        found.len(),
        result.hops,
        expected.len()
    );

    // 4. Prefix search (an order-preserving range query over the term space).
    let prefix: String = term.chars().take(2).collect();
    let (lo, hi) = prefix_key_range(&prefix);
    let range = range_query(&overlay.peers, PeerId(3), lo, hi, &mut rng);
    let mut docs: Vec<_> = range.entries.iter().map(|e| e.id).collect();
    docs.sort();
    docs.dedup();
    let expected_prefix = corpus.documents_with_prefix(&prefix);
    println!(
        "prefix '{prefix}*': {} documents via {} partitions and {} hops (ground truth: {})",
        docs.len(),
        range.partitions_visited,
        range.hops,
        expected_prefix.len()
    );
}
