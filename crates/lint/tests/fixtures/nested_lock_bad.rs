//! Fixture: acquiring a lock while a guard is live must fire `nested-lock`,
//! whether spelled `.lock()`/`.read()` or through the poison-recovering
//! `std::sync` helpers.
fn publish(store: &Store) {
    let guard = store.publish_lock.lock();
    let cur = store.current.read();
    drop(cur);
    drop(guard);
}

fn publish_std(store: &Store) {
    let guard = store.publish_lock.locked();
    let cur = store.current.read_locked();
    drop(cur);
    drop(guard);
}
