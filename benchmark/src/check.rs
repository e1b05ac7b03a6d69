//! The output check: after quiescence the display shows exactly the
//! projection of committed state, and committed state is what the
//! schedule wrote.

use crate::rig::Rig;
use crate::workload::Workload;
use displaydb_common::DbResult;

/// Read every link through a fresh third client and compare it with
/// `expected`, the last acknowledged `Utilization` per link by the
/// benchmark's own record, and with what the display shows. Returns one
/// line per kind of mismatch with how many links showed it.
pub fn check_outputs(
    rig: &Rig,
    workload: Workload,
    expected: &[f64],
) -> DbResult<Vec<(u64, String)>> {
    let checker = rig.checker()?;
    let class = workload.viewer_class();
    let mut wrong_state = 0;
    let mut wrong_display = 0;
    for (link, (&oid, &do_id)) in rig.oids.iter().zip(&rig.do_ids).enumerate() {
        let committed = checker.read(oid)?;
        if committed.get(&rig.catalog, "Utilization")?.as_float()? != expected[link] {
            wrong_state += 1;
        }
        let projection = class.derive(&rig.catalog, std::slice::from_ref(&committed))?;
        if rig.display.object(do_id).map(|o| o.attrs) != Some(projection) {
            wrong_display += 1;
        }
    }
    checker.close();
    let mut failures = Vec::new();
    if wrong_state > 0 {
        failures.push((
            wrong_state,
            format!("{wrong_state} links hold a value other than the last one committed to them"),
        ));
    }
    if wrong_display > 0 {
        failures.push((
            wrong_display,
            format!(
                "{wrong_display} display objects differ from the projection of committed state"
            ),
        ));
    }
    Ok(failures)
}
