package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ml.{AlarmModel, CategoricalEncoder}

/** The Verification Service (Section 4.2(3)): on reception of a new alarm,
  * compute the classification (true/false) and its confidence from a model
  * trained offline.
  *
  * `threshold` models the "My Security Center" customer setting (Section 3):
  * alarms with `p_true` below it are routed to the customer's phone first;
  * only those above go straight to the Alarm Receiving Center.
  */
final class VerificationService(val encoder: CategoricalEncoder,
                                val model: AlarmModel,
                                val threshold: Double = 0.5) extends Serializable {

  /** Score raw alarms: adds `features` (encoder), `p_true` and `prediction`
    * (model) and the routing decision `send_to_arc`. */
  def verify(alarms: DataFrame): DataFrame =
    model.transform(encoder.transform(alarms))
      .withColumn("send_to_arc", col("p_true") >= lit(threshold))
}
