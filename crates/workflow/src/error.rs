//! Workflow platform errors.

use std::fmt;

/// Result alias for workflow operations.
pub type WorkflowResult<T> = Result<T, WorkflowError>;

/// Errors raised by graph construction or scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// A dependency references a task that does not exist (yet).
    UnknownTask(usize),
    /// No workers were provided.
    NoWorkers,
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::UnknownTask(id) => write!(f, "unknown task id {id}"),
            WorkflowError::NoWorkers => write!(f, "worker pool is empty"),
        }
    }
}

impl std::error::Error for WorkflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(WorkflowError::UnknownTask(3).to_string(), "unknown task id 3");
        assert_eq!(WorkflowError::NoWorkers.to_string(), "worker pool is empty");
    }
}
