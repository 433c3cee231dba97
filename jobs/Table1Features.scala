package repro.jobs

import repro.core.Reports
import repro.data.AlarmSchema

/** Table 1: feature correspondence across the three datasets. */
object Table1Features {
  def render(): String = {
    val roles = Seq("Location", "Time", "Type of Location", "Incident Type", "Label")
    val cells = AlarmSchema.Table1.map(t => t._1 -> t.productIterator.drop(1).toSeq).toMap
    Reports.formatGrid("Dataset", AlarmSchema.Table1.map(_._1), roles, "")(
      (d, role) => cells(d)(roles.indexOf(role)).toString)
  }

  def main(args: Array[String]): Unit = {
    println("Table 1: Features of the three data sets")
    println(render())
  }
}
