//! The summaries that keep the figures steady on a machine whose cores
//! switch speed: best-of profiles, halves growth, and CPU alternation.

use perfbench::cpus::Cpus;
use perfbench::report::{best_of, halves_growth};

#[test]
fn best_of_takes_each_position_at_its_least_up_to_the_shortest_series() {
    let rounds = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0], vec![6.0, 0.5, 1.0]];
    assert_eq!(best_of(&rounds), vec![2.0, 0.5]);
}

#[test]
fn halves_growth_compares_window_medians_and_skips_an_odd_middle() {
    // First half {1, 3} has median 2; the middle 100 is in neither half;
    // second half {5, 7} has median 6.
    assert_eq!(halves_growth(&[1.0, 3.0, 100.0, 5.0, 7.0]), Some(3.0));
    assert_eq!(halves_growth(&[2.0, 2.0]), Some(1.0));
    assert_eq!(halves_growth(&[2.0]), None);
}

#[test]
fn pinning_moves_the_thread_and_dropping_restores_its_cpus() {
    let before = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus = Cpus::of_this_thread();
    if cpus.count() < 2 {
        return;
    }
    assert!(cpus.pin(1));
    assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
    drop(cpus);
    assert_eq!(std::thread::available_parallelism().unwrap().get(), before);
}
