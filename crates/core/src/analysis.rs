//! Gradient-scatter analysis (Figs. 3 and 6).
//!
//! The observable driving the whole paper: under non-IID data (small Dirichlet
//! α) benign clients' deltas scatter — large pairwise angles — while
//! CollaPois' coordinated deltas stay mutually aligned. These helpers extract
//! those statistics from collected [`RoundRecord`]s.

use collapois_fl::server::RoundRecord;
use collapois_fl::update::ClientUpdate;
use collapois_stats::geometry::mean_pairwise_angle;

/// Splits a round's updates into benign/malicious by the compromised id set.
pub fn split_updates<'a>(
    updates: &'a [ClientUpdate],
    compromised: &[usize],
) -> (Vec<&'a [f32]>, Vec<&'a [f32]>) {
    let mut benign = Vec::new();
    let mut malicious = Vec::new();
    for u in updates {
        if compromised.contains(&u.client_id) {
            malicious.push(u.delta.as_slice());
        } else {
            benign.push(u.delta.as_slice());
        }
    }
    (benign, malicious)
}

/// Pools all benign (resp. malicious) update vectors across rounds and
/// returns the mean pairwise angle of each pool, degrees.
pub fn pooled_mean_angles_deg(
    records: &[RoundRecord],
    compromised: &[usize],
) -> (Option<f64>, Option<f64>) {
    let mut benign: Vec<&[f32]> = Vec::new();
    let mut malicious: Vec<&[f32]> = Vec::new();
    for r in records {
        if let Some(updates) = &r.updates {
            let (b, m) = split_updates(updates, compromised);
            benign.extend(b);
            malicious.extend(m);
        }
    }
    // Cap the pool to keep O(n²) pairwise work bounded.
    benign.truncate(200);
    malicious.truncate(200);
    (
        mean_pairwise_angle(&benign).map(f64::to_degrees),
        mean_pairwise_angle(&malicious).map(f64::to_degrees),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, updates: Vec<ClientUpdate>) -> RoundRecord {
        RoundRecord {
            round,
            updates: Some(updates),
            ..Default::default()
        }
    }

    #[test]
    fn split_separates_by_id() {
        let updates = vec![
            ClientUpdate::new(0, vec![1.0, 0.0], 1),
            ClientUpdate::new(1, vec![0.0, 1.0], 1),
            ClientUpdate::new(2, vec![1.0, 1.0], 1),
        ];
        let (b, m) = split_updates(&updates, &[1]);
        assert_eq!(b.len(), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0], &[0.0, 1.0]);
    }

    #[test]
    fn rounds_without_updates_are_skipped() {
        let empty = RoundRecord::default();
        assert_eq!(pooled_mean_angles_deg(&[empty], &[]), (None, None));
    }

    #[test]
    fn pooled_angles_aggregate_across_rounds() {
        let r1 = record(
            0,
            vec![
                ClientUpdate::new(0, vec![1.0, 0.0], 1),
                ClientUpdate::new(9, vec![1.0, 0.0], 1),
            ],
        );
        let r2 = record(
            1,
            vec![
                ClientUpdate::new(1, vec![0.0, 1.0], 1),
                ClientUpdate::new(9, vec![1.0, 0.0], 1),
            ],
        );
        let (benign, malicious) = pooled_mean_angles_deg(&[r1, r2], &[9]);
        assert!((benign.unwrap() - 90.0).abs() < 1e-6);
        assert!(malicious.unwrap().abs() < 1e-3);
    }
}
