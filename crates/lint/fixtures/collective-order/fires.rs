//# path: crates/comm/src/fake_group.rs
// Fixture: collectives under rank-conditional branches deadlock —
// direct, transitive through a helper, and the early-return shape.

impl Group {
    pub fn quiesce(&mut self) -> Result<(), CommError> {
        if self.my_rank == 0 {
            self.barrier()?; //~ collective-order
        }
        Ok(())
    }

    fn helper_sync(&mut self) -> Result<(), CommError> {
        self.allreduce_sum(&mut [0.0f32; 4])
    }

    pub fn gated(&mut self) -> Result<(), CommError> {
        if self.my_rank == 0 {
            self.helper_sync()?; //~ collective-order
        }
        Ok(())
    }

    pub fn skip_out(&mut self) -> Result<(), CommError> {
        if self.my_rank != 0 {
            return Ok(()); //~ collective-order
        }
        self.barrier()?;
        Ok(())
    }

    pub fn owners_only(&mut self, grads: &mut [f32]) -> Result<(), CommError> {
        if self.owned[self.my_rank] > 0 {
            reduce_scatter_sum(self, grads, &self.spans)?; //~ collective-order
        }
        Ok(())
    }
}
