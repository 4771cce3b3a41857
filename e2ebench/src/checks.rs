//! Correctness checks computed apart from the simulator: each takes plain
//! data read out of a finished phase and compares it with what the routing
//! method must produce. The tests at the bottom feed each check a
//! deliberately corrupted result and show that it fires.

use std::collections::BTreeMap;

use bgpsdn_topology::{AsGraph, EdgeKind};

/// One step of an AS path, seen from the AS that takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// To a provider.
    Up,
    /// To a peer.
    Peer,
    /// To a customer.
    Down,
}

/// Relationship lookup over the synthesized graph, with an SDN cluster that
/// counts as one logical AS: a step between two members is internal to the
/// cluster and carries no relationship.
pub struct PathRules {
    index: BTreeMap<u32, usize>,
    steps: BTreeMap<(usize, usize), Step>,
    member: Vec<bool>,
}

impl PathRules {
    /// Rules for `g` with the SDN cluster `members`.
    pub fn new(g: &AsGraph, members: &[usize]) -> PathRules {
        let index = g.asns.iter().enumerate().map(|(i, a)| (a.0, i)).collect();
        let mut steps = BTreeMap::new();
        for e in &g.edges {
            match e.kind {
                EdgeKind::PeerPeer => {
                    steps.insert((e.a, e.b), Step::Peer);
                    steps.insert((e.b, e.a), Step::Peer);
                }
                // `a` is the provider of `b`.
                EdgeKind::ProviderCustomer => {
                    steps.insert((e.b, e.a), Step::Up);
                    steps.insert((e.a, e.b), Step::Down);
                }
            }
        }
        let mut member = vec![false; g.len()];
        for &m in members {
            member[m] = true;
        }
        PathRules {
            index,
            steps,
            member,
        }
    }

    /// Check the best path `path` (ASNs after the holder, ending at the
    /// origin) held by AS index `holder`: every ASN known, no AS twice,
    /// every hop an existing link, and the whole walk valley-free (up steps,
    /// at most one peer step, then down steps).
    pub fn check_path(&self, holder: usize, path: &[u32], origin: usize) -> Result<(), String> {
        let mut walk = Vec::with_capacity(path.len() + 1);
        walk.push(holder);
        for asn in path {
            let i = *self.index.get(asn).ok_or_else(|| {
                format!("AS{asn} on the path of AS index {holder} is not in the graph")
            })?;
            if walk.contains(&i) {
                return Err(format!(
                    "path {path:?} held by index {holder} has a loop at AS{asn}"
                ));
            }
            walk.push(i);
        }
        if walk.last() != Some(&origin) {
            return Err(format!(
                "path {path:?} held by index {holder} does not end at origin index {origin}"
            ));
        }
        let mut descending = false;
        for w in walk.windows(2) {
            if self.member[w[0]] && self.member[w[1]] && self.steps.contains_key(&(w[0], w[1])) {
                continue;
            }
            let step = *self.steps.get(&(w[0], w[1])).ok_or_else(|| {
                format!(
                    "path {path:?} held by index {holder} uses a non-link {}-{}",
                    w[0], w[1]
                )
            })?;
            match step {
                Step::Up if descending => {
                    return Err(format!("path {path:?} held by index {holder} has a valley"))
                }
                Step::Peer if descending => {
                    return Err(format!(
                        "path {path:?} held by index {holder} crosses two peer links"
                    ))
                }
                Step::Up => {}
                Step::Peer | Step::Down => descending = true,
            }
        }
        Ok(())
    }
}

/// The ASes holding a route must be exactly the expected ones.
pub fn same_holders(what: &str, expected: &[bool], actual: &[bool]) -> Result<(), String> {
    let diff: Vec<String> = expected
        .iter()
        .zip(actual)
        .enumerate()
        .filter(|(_, (e, a))| e != a)
        .map(|(i, (e, _))| format!("{i}:{}", if *e { "missing" } else { "extra" }))
        .take(8)
        .collect();
    if expected.len() != actual.len() || !diff.is_empty() {
        return Err(format!(
            "{what}: holders differ from the policy prediction at {}",
            diff.join(",")
        ));
    }
    Ok(())
}

/// No AS may still hold a route.
pub fn all_gone(what: &str, actual: &[bool]) -> Result<(), String> {
    match actual.iter().position(|&h| h) {
        Some(i) => Err(format!("{what}: AS index {i} still holds a route")),
        None => Ok(()),
    }
}

/// Per-AS state after the last event must equal the state after bring-up.
pub fn same_state<T: PartialEq>(what: &str, before: &[T], after: &[T]) -> Result<(), String> {
    if before.len() != after.len() {
        return Err(format!(
            "{what}: {} entries after bring-up, {} at the end",
            before.len(),
            after.len()
        ));
    }
    match before.iter().zip(after).position(|(b, a)| b != a) {
        Some(i) => Err(format!(
            "{what}: AS index {i} differs from its post-bring-up state"
        )),
        None => Ok(()),
    }
}

/// A withdrawal's convergence time must not exceed (hunt bound + 1) × MRAI:
/// each hunting step commits to a strictly longer path and waits at most
/// one MRAI.
pub fn within_hunt_time(
    convergence_ns: u64,
    hunt_bound: usize,
    mrai_ns: u64,
) -> Result<(), String> {
    let limit = (hunt_bound as u64 + 1) * mrai_ns;
    if convergence_ns > limit {
        return Err(format!("convergence {convergence_ns} ns exceeds (hunt bound {hunt_bound} + 1) x MRAI = {limit} ns"));
    }
    Ok(())
}

/// A transient best path may not be longer than the hunt bound, counting a
/// run of cluster members as one logical AS.
pub fn within_hunt_length(path: &[u32], members: &[u32], hunt_bound: usize) -> Result<(), String> {
    let mut logical = 0usize;
    let mut prev_member = false;
    for asn in path {
        let m = members.contains(asn);
        if !(m && prev_member) {
            logical += 1;
        }
        prev_member = m;
    }
    if logical > hunt_bound {
        return Err(format!(
            "transient path {path:?} has {logical} logical hops, hunt bound is {hunt_bound}"
        ));
    }
    Ok(())
}

/// Per-cell median convergence must not rise as the SDN cluster grows.
/// `cells` is `(cluster size, convergence ns)` per job, in any order.
pub fn medians_do_not_rise(cells: &[(usize, u64)]) -> Result<(), String> {
    let mut by_size: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(k, c) in cells {
        by_size.entry(k).or_default().push(c);
    }
    let medians: Vec<(usize, f64)> = by_size
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            let n = v.len();
            let m = if n % 2 == 1 {
                v[n / 2] as f64
            } else {
                (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0
            };
            (k, m)
        })
        .collect();
    for w in medians.windows(2) {
        if w[1].1 > w[0].1 {
            return Err(format!(
                "median convergence rises from {:.3} s at sdn {} to {:.3} s at sdn {}",
                w[0].1 / 1e9,
                w[0].0,
                w[1].1 / 1e9,
                w[1].0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_bgp::Asn;
    use bgpsdn_topology::AsEdge;

    /// 0,1 tier-1 peers; 2 customer of 0; 3 customer of 1; 4 customer of 2
    /// and 3 (multihomed stub). ASNs are index + 100.
    fn graph() -> AsGraph {
        let pc = |a, b| AsEdge {
            a,
            b,
            kind: EdgeKind::ProviderCustomer,
        };
        AsGraph {
            asns: (0..5).map(|i| Asn(100 + i)).collect(),
            edges: vec![
                AsEdge {
                    a: 0,
                    b: 1,
                    kind: EdgeKind::PeerPeer,
                },
                pc(0, 2),
                pc(1, 3),
                pc(2, 4),
                pc(3, 4),
            ],
        }
    }

    #[test]
    fn valid_paths_pass() {
        let r = PathRules::new(&graph(), &[]);
        // 2 -> 0 -> 1 -> 3: up, peer, down.
        assert_eq!(r.check_path(2, &[100, 101, 103], 3), Ok(()));
        // 0 -> 2 -> 4: down, down.
        assert_eq!(r.check_path(0, &[102, 104], 4), Ok(()));
        // The origin holds its own route with an empty path.
        assert_eq!(r.check_path(4, &[], 4), Ok(()));
    }

    #[test]
    fn corrupted_paths_fire() {
        let r = PathRules::new(&graph(), &[]);
        // Valley: 2 -> 4 (down) -> 3 (up).
        assert!(r
            .check_path(2, &[104, 103], 3)
            .unwrap_err()
            .contains("valley"));
        // Loop: 2 -> 0 -> 2.
        assert!(r
            .check_path(2, &[100, 102], 2)
            .unwrap_err()
            .contains("loop"));
        // Non-link: 2 -> 3.
        assert!(r.check_path(2, &[103], 3).unwrap_err().contains("non-link"));
        // Unknown ASN.
        assert!(r.check_path(2, &[999], 3).is_err());
        // Wrong origin.
        assert!(r.check_path(0, &[102], 4).unwrap_err().contains("origin"));
    }

    #[test]
    fn peer_steps_inside_the_cluster_do_not_count() {
        // 0-1 peer and 1-5 peer: two peer steps, a violation for legacy
        // ASes but one logical AS when 0, 1 and 5 form a cluster.
        let mut g = graph();
        g.asns.push(Asn(105));
        g.edges.push(AsEdge {
            a: 1,
            b: 5,
            kind: EdgeKind::PeerPeer,
        });
        g.edges.push(AsEdge {
            a: 5,
            b: 0,
            kind: EdgeKind::PeerPeer,
        });
        let path = [100, 101, 105];
        assert!(PathRules::new(&g, &[]).check_path(2, &path, 5).is_err());
        assert_eq!(
            PathRules::new(&g, &[0, 1, 5]).check_path(2, &path, 5),
            Ok(())
        );
    }

    #[test]
    fn holder_checks_fire() {
        assert_eq!(same_holders("p", &[true, true], &[true, true]), Ok(()));
        assert!(same_holders("p", &[true, true], &[true, false])
            .unwrap_err()
            .contains("1:missing"));
        assert!(same_holders("p", &[true, false], &[true, true])
            .unwrap_err()
            .contains("1:extra"));
        assert_eq!(all_gone("p", &[false, false]), Ok(()));
        assert!(all_gone("p", &[false, true]).is_err());
    }

    #[test]
    fn state_check_fires() {
        assert_eq!(same_state("rib", &[1, 2], &[1, 2]), Ok(()));
        assert!(same_state("rib", &[1, 2], &[1, 3]).is_err());
        assert!(same_state("rib", &[1, 2], &[1]).is_err());
    }

    #[test]
    fn hunt_checks_fire() {
        let mrai = 30_000_000_000;
        assert_eq!(within_hunt_time(480_000_000_000, 15, mrai), Ok(()));
        assert!(within_hunt_time(480_000_000_001, 15, mrai).is_err());
        // Members 7 and 8 collapse to one logical hop: 3 logical hops.
        assert_eq!(within_hunt_length(&[1, 7, 8, 2], &[7, 8], 3), Ok(()));
        assert!(within_hunt_length(&[1, 7, 8, 2], &[], 3).is_err());
    }

    #[test]
    fn median_check_fires() {
        let ok = [(0, 30), (0, 10), (0, 20), (1, 5), (1, 25), (2, 0)];
        assert_eq!(medians_do_not_rise(&ok), Ok(()));
        let bad = [(0, 10), (1, 11)];
        assert!(medians_do_not_rise(&bad).is_err());
    }
}
