fn publish() {
    qpgc_fault::fail_point!("store/armed");
}

fn stage() {
    qpgc_fault::fail_point!("store/staged");
}
