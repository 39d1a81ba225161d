use std::sync::{Mutex, RwLock};

fn counters(m: &Mutex<u64>, l: &RwLock<u64>) -> u64 {
    let a = *m.lock().unwrap();
    let b = *m.lock().expect("poisoned");
    let c = *l.read().unwrap();
    a + b + c
}
