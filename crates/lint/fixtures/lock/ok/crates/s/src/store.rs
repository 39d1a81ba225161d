use std::sync::{Mutex, PoisonError, RwLock};

fn counter(m: &Mutex<u64>) -> u64 {
    *m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn reader(l: &RwLock<u64>) -> u64 {
    *l.read().unwrap_or_else(PoisonError::into_inner)
}
