//# path: crates/comm/src/fake_brackets.rs
// Fixture: brackets inside string, char, byte and raw-string literals,
// lifetimes, nested closures and a match arm block do not move where a
// rank-conditional branch ends.

impl<'a> Group<'a> {
    pub fn labelled(&mut self, tag: &'a str) -> Result<(), CommError> {
        if self.my_rank == 0 {
            let open = "{ ( [";
            let brace = '{';
            let byte = b'}';
            let raw = r#"} ) ]"#;
            self.log(open, brace, byte, raw, tag);
            self.barrier()?; //~ collective-order
        }
        self.barrier()?;
        Ok(())
    }

    pub fn nested(&mut self, peers: &[usize]) -> Result<(), CommError> {
        let count = peers.iter().map(|p| peers.iter().filter(|q| { *q == p }).count()).sum::<usize>();
        if self.my_rank == count {
            let pick = |x: &'a str| move |y: char| if y == '}' { x } else { "{" };
            self.allreduce_sum(&mut [0.0f32; 2])?; //~ collective-order
        }
        Ok(())
    }

    pub fn by_kind(&mut self, kind: Kind) -> Result<(), CommError> {
        match kind {
            Kind::Lead => {
                if self.leader {
                    self.note("}");
                    return Ok(()); //~ collective-order
                }
            }
            Kind::Follow => self.note("{"),
        }
        self.barrier()?;
        Ok(())
    }

    pub fn literal_only(&mut self) -> Result<(), CommError> {
        let text = "if rank == 0 { barrier() }";
        if self.enabled {
            self.allgather(&mut [])?;
        }
        Ok(())
    }
}
