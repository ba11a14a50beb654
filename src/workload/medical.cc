#include "workload/medical.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace ghostdb::workload {

using catalog::Value;

MedicalShape::MedicalShape(double scale)
    : doctors(std::max<uint64_t>(static_cast<uint64_t>(4500 * scale), 20)),
      patients(std::max<uint64_t>(static_cast<uint64_t>(14000 * scale), 50)),
      measurements(
          std::max<uint64_t>(static_cast<uint64_t>(1'300'000 * scale), 200)),
      drugs(std::max<uint64_t>(static_cast<uint64_t>(45 * scale), 5)) {}

namespace {

const char* kSpecialties[] = {
    "Endocrinology", "Cardiology",  "Nephrology",  "Ophthalmology",
    "Podiatry",      "Dietetics",   "Psychiatrist", "General",
    "Neurology",     "Geriatrics"};

std::string Pad6(uint64_t v) {
  std::string s = std::to_string(v);
  return std::string(6 - s.size(), '0') + s;
}

std::string RandName(Rng* rng, const char* prefix) {
  return std::string(prefix) + Pad6(rng->Uniform(1'000'000));
}

}  // namespace

core::GhostDBConfig MedicalDbConfig(const MedicalConfig& config) {
  MedicalShape shape(config.scale);
  core::GhostDBConfig cfg;
  uint64_t bytes = shape.measurements * 140ull * 3 +
                   shape.patients * 200ull * 3 + shape.doctors * 140ull * 3;
  cfg.device.flash.logical_pages =
      static_cast<uint32_t>(std::max<uint64_t>(bytes / 2048, 4096));
  cfg.indexed_attrs_by_name = {{
      {"Doctors", {"name"}},
      {"Patients", {"bodymassindex"}},
  }};
  return cfg;
}

Status BuildMedical(core::GhostDB* db, const MedicalConfig& config) {
  MedicalShape shape(config.scale);
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Doctors (id INT, specialty CHAR(20), "
      "description CHAR(60), first_name CHAR(20) HIDDEN, "
      "name CHAR(20) HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Drugs (id INT, property CHAR(60), "
      "comment CHAR(100) HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Patients (id INT, doctor_id INT REFERENCES Doctors "
      "HIDDEN, first_name CHAR(20), name CHAR(20) HIDDEN, ssn CHAR(10) "
      "HIDDEN, address CHAR(50) HIDDEN, birthdate CHAR(10) HIDDEN, "
      "bodymassindex DOUBLE HIDDEN, age INT, sexe CHAR(2), city CHAR(20), "
      "zipcode CHAR(6))"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Measurements (id INT, patient_id INT REFERENCES "
      "Patients HIDDEN, drug_id INT REFERENCES Drugs HIDDEN, "
      "time CHAR(10), measurement CHAR(10), comment CHAR(100))"));

  Rng rng(config.seed);
  {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging("Doctors"));
    for (uint64_t i = 0; i < shape.doctors; ++i) {
      GHOSTDB_RETURN_NOT_OK(data->AppendRow(
          {Value::String(kSpecialties[rng.Uniform(10)]),
           Value::String("Diabetes care provider #" + std::to_string(i)),
           Value::String(RandName(&rng, "F")),
           // Hidden selectivity dial: uniform zero-padded 6-digit name.
           Value::String(Pad6(rng.Uniform(1'000'000)))}));
    }
  }
  {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging("Drugs"));
    for (uint64_t i = 0; i < shape.drugs; ++i) {
      GHOSTDB_RETURN_NOT_OK(data->AppendRow(
          {Value::String("insulin analogue class " + std::to_string(i)),
           Value::String("dosage and contraindication notes " +
                         std::to_string(rng.Uniform(1000)))}));
    }
  }
  {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging("Patients"));
    for (uint64_t i = 0; i < shape.patients; ++i) {
      GHOSTDB_RETURN_NOT_OK(data->AppendRow(
          {Value::Int32(static_cast<int32_t>(rng.Uniform(shape.doctors))),
           Value::String(RandName(&rng, "P")),
           Value::String(RandName(&rng, "N")),
           Value::String(Pad6(rng.Uniform(1'000'000)).substr(0, 6) + "SSN"),
           Value::String(std::to_string(rng.Uniform(999)) + " Rue de la " +
                         std::to_string(rng.Uniform(99))),
           Value::String("19" + std::to_string(40 + rng.Uniform(60))),
           Value::Double(15.0 + rng.NextDouble() * 30.0),
           Value::Int32(static_cast<int32_t>(rng.Uniform(100))),
           Value::String(rng.Chance(0.5) ? "M" : "F"),
           Value::String("City" + std::to_string(rng.Uniform(200))),
           Value::String(Pad6(rng.Uniform(99999)).substr(1))}));
    }
  }
  {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging("Measurements"));
    for (uint64_t i = 0; i < shape.measurements; ++i) {
      GHOSTDB_RETURN_NOT_OK(data->AppendRow(
          {Value::Int32(static_cast<int32_t>(rng.Uniform(shape.patients))),
           Value::Int32(static_cast<int32_t>(rng.Uniform(shape.drugs))),
           Value::String("2006-" + Pad6(rng.Uniform(12) + 1).substr(4)),
           Value::String(Pad6(rng.Uniform(400))),
           Value::String("glycemia reading, fasting=" +
                         std::to_string(rng.Uniform(2)))}));
    }
  }
  return db->Build();
}

std::string MedicalQueryQ(double sv, double sh) {
  int age_cut = static_cast<int>(std::lround(sv * 100.0));
  std::string name_cut = Pad6(static_cast<uint64_t>(sh * 1'000'000));
  return "SELECT Measurements.id, Patients.id, Doctors.id, "
         "Patients.first_name FROM Measurements, Patients, Doctors WHERE "
         "Measurements.patient_id = Patients.id AND "
         "Patients.doctor_id = Doctors.id AND Patients.age < " +
         std::to_string(age_cut) + " AND Doctors.name < '" + name_cut + "'";
}

}  // namespace ghostdb::workload
