package repro.data

import java.sql.Timestamp
import org.apache.spark.sql.{Column, DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.functions.{col, unix_timestamp}
import repro.streamlog.AlarmEvent

/** The generic alarm data type of the paper's "design for reusability" lesson
  * (Section 6.1): one schema describes all three datasets — Sitasys, London
  * Fire Brigade (LFB) and San Francisco (SF) — with dataset-specific fields
  * left null where the source does not provide them (Table 1).
  *
  * Columns:
  *  - `device_addr`   MAC-like sensor address (Sitasys only) — drives the
  *                    batch-component histograms of Section 5.5
  *  - `zip`           location at ZIP granularity (all datasets)
  *  - `city`          owning city/village from the gazetteer — used only to
  *                    join text-mined incidents (which lack ZIP codes)
  *  - `ts`, `day_of_week` (1–7), `hour_of_day` (0–23)
  *  - `alarm_type`    incident type (fire, intrusion, … / PropertyCategory /
  *                    Call Type per Table 1)
  *  - `property_type` type of supervised premise (absent in SF)
  *  - `sensor_type`, `sw_version`  sensor-specific extras (Sitasys only)
  *  - `duration_sec`  time until the alarm was reset (Sitasys only) — the
  *                    paper's label heuristic thresholds this at Δt
  *  - `label`         ground-truth 1=true alarm, 0=false (LFB/SF: given by the
  *                    dataset; Sitasys: NOT given — the pipeline derives it
  *                    from `duration_sec`)
  *  - `latent_true`   the generator's hidden truth, for diagnostics/tests
  *                    ONLY; never a model feature
  */
final case class LabeledAlarm(
    id: Long,
    device_addr: String,
    zip: String,
    city: String,
    ts: Timestamp,
    day_of_week: Int,
    hour_of_day: Int,
    alarm_type: String,
    property_type: String,
    sensor_type: String,
    sw_version: String,
    duration_sec: Double,
    label: Int,
    latent_true: Int
)

object AlarmSchema {
  /** Feature columns shared by every dataset (the paper's generic set). */
  val GenericFeatures: Seq[String] =
    Seq("zip", "day_of_week", "hour_of_day", "alarm_type", "property_type")

  /** Sitasys-specific extras (sensor information) that push accuracy >90%. */
  val SitasysExtras: Seq[String] = Seq("sensor_type", "sw_version")

  /** Each wire field of [[AlarmEvent]] with its column, in field order: the
    * one mapping between the camelCase wire record and the snake_case
    * columns every stage works on. */
  private val EventColumns: Seq[(String, String)] = Seq(
    "id" -> "id", "deviceAddr" -> "device_addr", "zip" -> "zip", "tsEpoch" -> "ts_epoch",
    "dayOfWeek" -> "day_of_week", "hourOfDay" -> "hour_of_day", "alarmType" -> "alarm_type",
    "propertyType" -> "property_type", "sensorType" -> "sensor_type",
    "swVersion" -> "sw_version", "durationSec" -> "duration_sec")

  /** The event's fields as snake_case columns; `field` reads one wire field,
    * e.g. `col` for a frame of events or `col("alarm").getField` for a struct. */
  def eventColumns(field: String => Column): Seq[Column] =
    EventColumns.map { case (f, c) => field(f).as(c) }

  /** Wire events as a frame of snake_case columns (the consumer's batch).
    * The frame reads an RDD, not a local relation: over a local relation the
    * optimizer evaluates every projection on top of it, encoder and model
    * UDFs included, on the driver in one thread. */
  def eventFrame(spark: SparkSession, events: Seq[AlarmEvent]): DataFrame =
    spark.createDataset(spark.sparkContext.parallelize(events))(Encoders.product[AlarmEvent]).toDF()
      .select(eventColumns(col): _*)

  /** Labelled alarms (a [[LabeledAlarm]] frame) as wire events; `tsEpoch` is
    * `ts` in whole seconds. */
  def events(labelled: DataFrame): Dataset[AlarmEvent] =
    labelled.withColumn("ts_epoch", unix_timestamp(col("ts")))
      .select(EventColumns.map { case (f, c) => col(c).as(f) }: _*)
      .as(Encoders.product[AlarmEvent])

  /** Table 1 of the paper: which source field plays which role per dataset. */
  val Table1: Seq[(String, String, String, String, String, String)] = Seq(
    // dataset, location, time, type of location, incident type, label
    ("Sitasys", "ZIP code", "Timestamp", "ObjectType", "Alarm Type", "Alarm Duration"),
    ("London", "ZIP code", "Date/TimeOfCall", "PropertyType", "PropertyCategory", "Incident Group"),
    ("San Francisco", "Zip code Of Incident", "ReceivedDtTm", "-", "Call Type", "Call Final Disposition"),
  )
}
