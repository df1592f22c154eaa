//! The one sweep harness behind the seeded fault sweeps (`faults`,
//! `verify-crash`, `verify-net`, `verify-scrub`).
//!
//! A sweep is a list of keys (a cache model, a model × crash point, …)
//! crossed with a run of items (usually the eight traces). [`grid`] is
//! the only place that owns the determinism contract: cells are submitted
//! key-major through one `par_map`, so task paths (and every metric,
//! event and gauge recorded inside a cell) depend on the key and item
//! lists alone; `par_map` returns results in submission order, so each
//! key's row merges its items in item order, identically at any
//! `--jobs` count. [`Judged`] is the matching output contract, read the
//! same way by the CLI and the experiment registry.

/// A sweep's output: the report printed by its command, and the reason
/// the sweep fails its acceptance check, if it does.
pub trait Judged {
    /// The rendered report (tables and verdict lines).
    fn render(&self) -> String;
    /// `Some(reason)` when the sweep ran but its verdict is a fail.
    fn failure(&self) -> Option<String>;
}

/// Runs `run(key, item)` for every key in `keys` × item in `0..items`,
/// key-major, through one `par_map`, then folds each key's results in
/// item order with `merge` into one row per key.
///
/// The first `Err` in submission order is returned. With `items == 0`
/// no key has a result to fold, so no rows come out at all.
pub fn grid<K, R, E>(
    keys: &[K],
    items: usize,
    run: impl Fn(&K, usize) -> Result<R, E> + Sync,
    mut merge: impl FnMut(&mut R, R),
) -> Result<Vec<R>, E>
where
    K: Sync,
    R: Send,
    E: Send,
{
    let cells: Vec<(usize, usize)> = (0..keys.len())
        .flat_map(|k| (0..items).map(move |i| (k, i)))
        .collect();
    let mut results =
        nvfs_par::par_map(cells, nvfs_par::jobs(), |(k, i)| run(&keys[k], i)).into_iter();
    let mut rows = Vec::with_capacity(keys.len());
    for _ in keys {
        let mut row: Option<R> = None;
        for result in results.by_ref().take(items) {
            let result = result?;
            match row.as_mut() {
                Some(acc) => merge(acc, result),
                None => row = Some(result),
            }
        }
        rows.extend(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_out_key_major_with_items_merged_in_order() {
        let keys = ["a", "b", "c"];
        let rows = grid(
            &keys,
            3,
            |k, i| Ok::<_, ()>(vec![format!("{k}{i}")]),
            |acc, next| acc.extend(next),
        )
        .unwrap();
        assert_eq!(
            rows,
            [["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1", "c2"]]
        );
    }

    #[test]
    fn the_first_error_in_submission_order_wins() {
        let out = grid(
            &[0u32, 1, 2],
            4,
            |&k, i| match (k, i) {
                (1, 2) => Err("first"),
                (1, 3) | (2, 0) => Err("later"),
                _ => Ok(1u32),
            },
            |acc, next| *acc += next,
        );
        assert_eq!(out, Err("first"));
    }

    #[test]
    fn zero_items_yield_no_rows() {
        let rows = grid(&[1, 2, 3], 0, |_, _| Ok::<u32, ()>(1), |_, _| {}).unwrap();
        assert!(rows.is_empty());
        let rows = grid(&[] as &[u32], 4, |_, _| Ok::<u32, ()>(1), |_, _| {}).unwrap();
        assert!(rows.is_empty());
    }
}
