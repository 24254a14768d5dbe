//! Each method is used once, by a call, a turbofish call or a path; the
//! constructor takes no `self`, so any mention keeps it alive.

pub struct Gauge {
    level: u32,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge { level: 0 }
    }

    pub fn level(&self) -> u32 {
        self.level
    }

    pub fn scaled<T: From<u32>>(&self) -> T {
        T::from(self.level)
    }

    pub fn bump(&mut self) {
        self.level += 1;
    }

    pub fn apply<F: Fn(u32) -> u32>(&self, f: F) -> u32 {
        f(self.level)
    }
}

fn read() -> u64 {
    let mut g = Gauge::new();
    let bump: fn(&mut Gauge) = Gauge::bump;
    bump(&mut g);
    g.scaled::<u64>() + u64::from(g.level()) + u64::from(g.apply(|x| x + 1))
}
