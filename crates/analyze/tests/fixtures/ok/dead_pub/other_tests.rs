#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_widget() {
        let w = crate::widget::Widget { hits: 7 };
        assert_eq!(crate::widget::used_by_other_tests(&w), 7);
    }
}
