// The paper's real dataset (section 6.2): sanitized diabetes medical data.
// The original is not distributable, so this generator synthesizes a
// dataset with the published schema, cardinalities, attribute widths and
// hidden/visible split (see DESIGN.md, substitutions):
//
//   Doctors [4.5K]:  (id^VH, specialty^V(20), description^V(60),
//                     first-name^H(20), name^H(20))
//   Patients [14K]:  (id^VH, doctor_id^H, first-name^V(20), name^H(20),
//                     SSN^H(10), address^H(50), birthdate^H(10),
//                     bodymassindex^H(4), age^V(2), sexe^V(2), city^V(20),
//                     zipcode^V(6))
//   Measurements [1.3M]: (id^VH, patient_id^H, drug_id^H, time^V(10),
//                     measurement^V(10), comment^V(100))
//   Drugs [45]:      (id^VH, property^V(60), comment^H(100))
//
// Dial-able columns: Doctors.name is a zero-padded 6-digit string (hidden
// selectivity dial) and Patients.age is uniform 0..99 (visible dial).
#pragma once

#include <string>

#include "catalog/value.h"
#include "core/database.h"

namespace ghostdb::workload {

struct MedicalConfig {
  double scale = 0.05;  ///< 1.0 = paper sizes (1.3M measurements)
  uint64_t seed = 1977;  ///< the 30-year-old problem (paper section 1)
};

struct MedicalShape {
  uint64_t doctors, patients, measurements, drugs;
  explicit MedicalShape(double scale);
};

/// GhostDBConfig pre-sized for the dataset.
core::GhostDBConfig MedicalDbConfig(const MedicalConfig& config);

/// Creates schema + data + indexes in `db`.
Status BuildMedical(core::GhostDB* db, const MedicalConfig& config);

/// The Fig 16 query: same structure as Query Q with T0 -> Measurements,
/// T1 -> Patients, T12 -> Doctors. Visible selection on Patients.age with
/// selectivity `sv`, hidden selection on Doctors.name with selectivity
/// `sh`.
std::string MedicalQueryQ(double sv, double sh);

}  // namespace ghostdb::workload
