//# path: crates/comm/src/fake_arq.rs
// Fixture: compso-comm reads time through clock.rs's `Clock` alone. A
// time read in any other comm file fires whether or not a critical root
// reaches it; test code keeps its own stopwatches.

fn backoff(rx: &Receiver<Payload>, d: Duration) -> Option<Payload> {
    let start = Instant::now(); //~ deterministic-state
    std::thread::sleep(d); //~ deterministic-state
    let got = rx.recv_timeout(d).ok(); //~ deterministic-state
    let _wall = SystemTime::now(); //~ deterministic-state
    got
}

fn paced(clock: &Clock, rx: &Receiver<Payload>, d: Duration) -> Option<Payload> {
    let deadline = clock.now() + d;
    clock.recv_until(rx, deadline)
}

#[cfg(test)]
mod tests {
    #[test]
    fn times_itself() {
        let t = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(t.elapsed().as_millis() >= 1);
    }
}
