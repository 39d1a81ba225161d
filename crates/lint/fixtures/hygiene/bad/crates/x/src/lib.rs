fn greet() {
    println!("hi");
    dbg!(42);
}

fn later() {
    todo!()
}
