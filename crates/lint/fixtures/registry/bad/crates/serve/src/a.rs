fn publish() {
    qpgc_fault::fail_point!("store/ghost");
}
