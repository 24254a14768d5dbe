fn main() {
    let mut w = prestage_cache::widget::Widget { hits: 0 };
    prestage_cache::widget::used_by_perfbench(&mut w);
}
