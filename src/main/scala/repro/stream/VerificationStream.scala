package repro.stream

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.VerificationService
import repro.data.AlarmSchema
import repro.streamlog.AlarmSerializer

/** Structured Streaming flavour of the verification pipeline.
  *
  * The paper coupled Kafka to Spark via Direct DStreams (Structured
  * Streaming was still experimental at project start, Section 4.3); the
  * reproduction targets Structured Streaming per the repro brief. The
  * pipeline is a pure DataFrame transformation, so it runs identically on a
  * batch frame or a streaming source (MemoryStream in tests):
  *
  *   serialized alarm JSON → deserialize UDF → a-priori-risk annotation UDF
  *   (text-analytics product) → one-hot encoding UDF → model scoring →
  *   verification + confidence + ARC routing decision.
  */
object VerificationStream {

  /** Build the scored stream from a frame with a `value: String` column. */
  def build(serialized: DataFrame,
            ser: AlarmSerializer,
            service: VerificationService,
            riskByZip: Map[String, Double]): DataFrame = {
    val parse = udf((s: String) => ser.read(s))
    val risk  = udf((zip: String) => riskByZip.getOrElse(zip, 0.0))
    val parsed = serialized
      .withColumn("alarm", parse(col("value")))
      .select(AlarmSchema.eventColumns(col("alarm").getField): _*)
      .withColumn("a_priori_risk", risk(col("zip")))
    service.verify(parsed)
      .select("id", "device_addr", "zip", "alarm_type", "a_priori_risk",
              "p_true", "prediction", "send_to_arc")
  }
}
