fn main() {
    println!("{}", x::fast(4));
}
