#[test]
fn builds_a_widget() {
    assert_eq!(prestage_cache::widget::used_by_integration_test().hits, 64);
}
