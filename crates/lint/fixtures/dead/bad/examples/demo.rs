// A re-export names the item without calling it.
use x::only_tested as _;

fn main() {
    let config = x::Config { limit: x::served() };
    println!("{}", config.limit);
}
