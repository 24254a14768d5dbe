//! Every method here is dead: a field, a local or a parameter of the same
//! name is not a call, whatever its spelling.

pub struct Gauge {
    level: u32,
}

impl Gauge {
    pub fn level(&self) -> u32 {
        self.level
    }

    pub fn reset(&mut self) {
        self.level = 0;
    }

    /// The `->` inside the bound does not close the generics.
    pub fn apply<F: Fn(u32) -> u32>(&self, f: F) -> u32 {
        f(self.level)
    }
}

fn drain(g: &mut Gauge, apply: u32) -> u32 {
    let reset = g.level + apply;
    g.level = 0;
    reset
}
